#ifndef SPARDL_SIMNET_NETWORK_H_
#define SPARDL_SIMNET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "des/event_engine.h"
#include "simnet/cost_model.h"
#include "sparse/part_list.h"
#include "sparse/sparse_vector.h"
#include "topo/placement.h"
#include "topo/topology.h"
#include "topo/topology_spec.h"

namespace spardl {

class FlatTopology;
class ProtocolChecker;

/// Message payloads the simulated network can carry.
///
/// A closed variant (rather than opaque bytes) keeps the simulator type-safe
/// and avoids serialisation costs that would pollute wall-clock timing; the
/// wire size is still charged from the logical encoding (COO entry = 2
/// words, dense float = 1 word). A `PartList` is charged as the parts it
/// lists, though its parts are shared, not copied.
using Payload =
    std::variant<SparseVector, std::vector<SparseVector>, PartList,
                 std::vector<float>, std::vector<uint32_t>, double, int64_t>;

/// Number of 4-byte wire words `payload` occupies.
size_t PayloadWords(const Payload& payload);

/// A message in flight.
struct Packet {
  Payload payload;
  size_t words = 0;
  /// Sender's simulated clock when the send was issued.
  double sent_at = 0.0;
  int tag = 0;
  /// Sending rank, stamped by `Network::Post`.
  int src = -1;
  /// Event engine only: the flow key assigned at `Post` time (0 on the
  /// flat fabric, whose closed form is charged at `Recv`).
  uint64_t flow = 0;
};

/// The in-process interconnect: one inbox per receiving worker.
///
/// Every packet posted to worker `dst` lands in inbox `dst`, and a
/// receive takes the first packet that matches its `(src, tag)`, so
/// delivery is FIFO per (src, dst, tag). Each of the P workers owns one
/// endpoint (see `Comm`) and is the only one that waits on its inbox.
/// Not thread-safe: a network belongs to one simulation, whose workers
/// are fibers on one carrier thread (see `CoopScheduler`).
///
/// Blocking: receive, barrier and clock sync all block through one
/// private `Wait`. Inside a worker fiber it yields to the scheduler,
/// which pumps the event engine at its all-workers-blocked cuts and,
/// the moment nothing can run, lets an attached protocol checker
/// diagnose the stall or else aborts with a "collective deadlock"
/// diagnosis naming every abandoned wait. Outside any fiber (a test driving
/// `Comm` endpoints by hand) nobody else can run, so it pumps the engine
/// in place until the wait is satisfied, and CHECK-fails with the wait's
/// description when nothing is left to pump.
///
/// Charging: the topology kind alone decides. `FlatTopology` is charged
/// by its closed form inside `Recv` (`FlatTopology::ChargeMessage`).
/// Every other fabric runs a `des::`-style `EventEngine`: flows are
/// injected at `Post` time and per-hop events are processed in
/// `(time, flow key)` order. Both paths are deterministic under any
/// fiber schedule.
class Network {
 public:
  /// Flat crossbar shorthand: the paper's alpha-beta model.
  Network(int size, CostModel cost_model);

  /// Any fabric: builds `spec` (CHECK-failing on an invalid one; use
  /// `spec.Build()` first for recoverable validation) and delegates
  /// message costs to it. The spec fixes the worker count.
  explicit Network(const TopologySpec& spec);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int size() const { return size_; }

  /// The topology's reference alpha-beta model (exact per-message cost on
  /// flat; the per-hop budget elsewhere).
  const CostModel& cost_model() const { return topology_->base_cost(); }

  Topology& topology() { return *topology_; }
  const Topology& topology() const { return *topology_; }

  /// The spec this fabric was built from.
  const TopologySpec& spec() const { return spec_; }

  /// This cluster's layout of its workers into `num_teams` teams under
  /// `policy`: planned from the network's own fabric (`PlanPlacement`) on
  /// first use and kept for the network's lifetime, so every worker shares
  /// one layout per (num_teams, policy) and later calls allocate nothing.
  /// CHECK-fails unless `num_teams` divides `size()` (configs are
  /// validated first: `AlgorithmConfig::Validate`).
  const TeamPlacement& TeamLayout(int num_teams, PlacementPolicy policy);

  /// Heterogeneous-cluster support (the paper's §VI extension): scales the
  /// cost of `rank`'s receive path by `factor` (>= 1 models a straggler
  /// with a slower NIC/placement). Set before running workers. Folds into
  /// the topology's per-node link scaling; on the default flat fabric this
  /// is exactly the historical whole-message scaling.
  void SetWorkerSlowdown(int rank, double factor);
  double WorkerSlowdown(int rank) const { return topology_->NodeScale(rank); }

  /// True when the event engine is charging this fabric (every fabric
  /// but flat).
  bool event_ordered() const { return engine_ != nullptr; }

  /// The event engine charging this fabric, or null on flat. The
  /// cooperative scheduler pumps through it (`CoopScheduler::Run` takes
  /// it by pointer).
  EventEngine* event_engine() { return engine_.get(); }

  /// Attaches a span recorder to the event engine (per-link occupancy
  /// spans and flow records; no-op on flat, which keeps no link state).
  /// Call between runs; the recorder must outlive them.
  /// `Cluster::EnableTracing` does this.
  void AttachTraceRecorder(TraceRecorder* recorder);

  /// Cumulative charge counters for one link. Zero on flat (its closed
  /// form never touches link state).
  LinkUsage link_usage(LinkId id) const;

  /// Deposits a packet from `src` into `dst`'s inbox. On the
  /// event-ordered engine this also injects the packet's flow into the
  /// event queue.
  void Post(int src, int dst, Packet packet);

  /// A received packet plus the receiver's advanced clock.
  struct Delivered {
    Packet packet;
    double delivery_time = 0.0;
  };

  /// Blocks until a packet with `tag` from `src` to `dst` is available
  /// (and, on the event engine, until its arrival time is resolved),
  /// removes it and returns it with its delivery time at a receiver whose
  /// clock reads `receiver_now`. Packets from one `src` with the same tag
  /// are delivered FIFO.
  Delivered RecvPacket(int src, int dst, int tag, double receiver_now);

  /// Rewinds the event engine's per-link clocks and counters between
  /// measured phases (no-op on flat); worker clocks rewind separately.
  void ResetSimState();

  /// True when no flow is in flight or awaiting consumption (end-of-run
  /// invariant; trivially true on flat).
  bool SimIdle() const { return engine_ == nullptr || engine_->Idle(); }

  /// Reusable rendezvous for all `size` workers.
  void BarrierWait();

  /// Publishes the caller's `value` and returns the max over all ranks
  /// once everyone has published (used to align simulated clocks).
  double MaxClockSync(double value);

  /// True if every inbox is empty (end-of-run invariant: no stray
  /// messages). Call only while no worker runs; `Cluster::Run` does,
  /// after its workers finish.
  bool AllMailboxesEmpty() const;

  /// Worker `rank`'s undelivered packets, from every sender, in post
  /// order: the sends no receive has matched yet. Read-only; the protocol
  /// checker diagnoses from it.
  const std::deque<Packet>& inbox(int rank) const {
    return inboxes_[static_cast<size_t>(rank)];
  }

  /// Attaches the SPMD protocol verifier (see `simnet/protocol_check.h`).
  /// Once attached, every blocking wait also watches `checker->failed()`
  /// and throws `ProtocolViolation` instead of waiting out a diagnosed
  /// divergence. Call between runs (`Cluster::EnableProtocolCheck`
  /// does).
  void set_protocol_checker(ProtocolChecker* checker) {
    protocol_ = checker;
  }

  /// Wakes every worker blocked in a receive, barrier, or clock sync so it
  /// can observe a diagnosed protocol violation and unwind. Called by a
  /// worker whose barrier entry was diagnosed; at a stall the scheduler
  /// wakes the waiters itself.
  void InterruptWaiters();

 private:
  /// The one blocking primitive: waits until `pred()` holds or a protocol
  /// violation is diagnosed, then throws `ProtocolViolation` in the
  /// latter case. `describe` names the wait in the deadlock diagnostics.
  void Wait(const std::function<bool()>& pred,
            const std::function<std::string()>& describe);

  /// Throws `ProtocolViolation` when the attached checker has diagnosed a
  /// divergence (no-op otherwise).
  void ThrowIfInterrupted() const;

  /// Cheap poll for wait predicates.
  bool interrupted() const;

  TopologySpec spec_;
  std::unique_ptr<Topology> topology_;
  /// Planned team layouts, by (num_teams, policy); map nodes never move, so
  /// the references `TeamLayout` hands out stay valid.
  std::map<std::pair<int, PlacementPolicy>, TeamPlacement> team_layouts_;
  /// Non-null exactly when `topology_` is a `FlatTopology`, whose closed
  /// form `RecvPacket` charges directly.
  const FlatTopology* flat_ = nullptr;
  /// Non-null on every other fabric.
  std::unique_ptr<EventEngine> engine_;
  ProtocolChecker* protocol_ = nullptr;
  int size_;
  /// By receiving rank: its undelivered packets, from every sender, in
  /// post order.
  std::vector<std::deque<Packet>> inboxes_;

  // The two rendezvous below keep separate state machines, so a program
  // that mixes the two barrier kinds cannot rendezvous by accident.

  // Reusable barrier (generation-counted).
  int barrier_waiting_ = 0;
  uint64_t barrier_generation_ = 0;

  // Max-clock sync state.
  int sync_count_ = 0;
  double sync_max_ = 0.0;
  double sync_result_ = 0.0;
  uint64_t sync_generation_ = 0;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_NETWORK_H_
