#ifndef SPARDL_SIMNET_NETWORK_H_
#define SPARDL_SIMNET_NETWORK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <variant>
#include <vector>

#include "common/lockcheck.h"
#include "des/event_engine.h"
#include "simnet/cost_model.h"
#include "sparse/sparse_vector.h"
#include "topo/topology.h"

namespace spardl {

class FlatTopology;
class ProtocolChecker;

/// Message payloads the simulated network can carry.
///
/// A closed variant (rather than opaque bytes) keeps the simulator type-safe
/// and avoids serialisation costs that would pollute wall-clock timing; the
/// wire size is still charged from the logical encoding (COO entry = 2
/// words, dense float = 1 word).
using Payload =
    std::variant<SparseVector, std::vector<SparseVector>, std::vector<float>,
                 std::vector<uint32_t>, double, int64_t>;

/// Number of 4-byte wire words `payload` occupies.
size_t PayloadWords(const Payload& payload);

/// A message in flight.
struct Packet {
  Payload payload;
  size_t words = 0;
  /// Sender's simulated clock when the send was issued.
  double sent_at = 0.0;
  int tag = 0;
  /// Event engine only: the flow key assigned at `Post` time (0 on the
  /// flat fabric, whose closed form is charged at `Recv`).
  uint64_t flow = 0;
};

/// The in-process interconnect: one FIFO mailbox per (src, dst) pair.
///
/// Thread-safe; each of the P worker threads owns one endpoint (see `Comm`).
/// Blocking receives time out after `recv_timeout_seconds` of *wall* time
/// and abort the process — a hung collective is always a bug, and a loud
/// failure beats a silent deadlock in CI.
///
/// Charging: the topology kind alone decides. `FlatTopology` is charged
/// by its closed form inside `Recv` (`FlatTopology::ChargeMessage`),
/// with per-mailbox locks. Every other fabric runs a `des::`-style
/// `EventEngine` — flows are injected at `Post` time, per-hop events are
/// processed in `(time, flow key)` order, and every blocking operation
/// (receive, barrier, clock sync) routes through the engine's single
/// mutex so the last runnable thread pumps the queue. Both paths are
/// deterministic on both execution backends.
class Network {
 public:
  /// Flat crossbar shorthand: the paper's alpha-beta model.
  Network(int size, CostModel cost_model);

  /// Any fabric: message costs are delegated to `topology` (which fixes the
  /// worker count).
  explicit Network(std::unique_ptr<Topology> topology);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  ~Network();

  int size() const { return size_; }

  /// The topology's reference alpha-beta model (exact per-message cost on
  /// flat; the per-hop budget elsewhere).
  const CostModel& cost_model() const { return topology_->base_cost(); }

  Topology& topology() { return *topology_; }
  const Topology& topology() const { return *topology_; }

  void set_recv_timeout_seconds(double seconds) {
    recv_timeout_seconds_ = seconds;
  }

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
  /// Call while no worker threads run; the recorder must outlive them.
  /// `Cluster::EnableTracing` does this.
  void AttachTraceRecorder(TraceRecorder* recorder);

  /// Cumulative charge counters for one link. Zero on flat (its closed
  /// form never touches link state).
  LinkUsage link_usage(LinkId id) const;

  /// Deposits a packet into the (src, dst) mailbox. On the event-ordered
  /// engine this also injects the packet's flow into the event queue.
  void Post(int src, int dst, Packet packet);

  /// A received packet plus the receiver's advanced clock.
  struct Delivered {
    Packet packet;
    double delivery_time = 0.0;
  };

  /// Blocks until a packet with `tag` from `src` to `dst` is available
  /// (and, on the event engine, until its arrival time is resolved),
  /// removes it and returns it with its delivery time at a receiver whose
  /// clock reads `receiver_now`. Packets with the same tag are delivered
  /// FIFO.
  Delivered RecvPacket(int src, int dst, int tag, double receiver_now);

  /// Worker-thread registration for the event engine's quiescence
  /// detection (no-ops on flat). `Cluster::Run` enters every worker
  /// before spawning any thread — registration must not race with pump
  /// eligibility — and each worker exits as its function returns.
  void WorkerEnter() {
    if (engine_) engine_->WorkerEnter();
  }
  void WorkerExit() {
    if (engine_) engine_->WorkerExit();
  }

  /// Publishes `rank`'s simulated clock for the event engine's
  /// safe-horizon pump rule (no-op on flat). Called by `Comm` on every
  /// clock change, without any network lock held.
  void PublishClock(int rank, double now) {
    if (engine_) engine_->PublishClock(rank, now);
  }

  /// Rewinds the event engine's per-link clocks and counters between
  /// measured phases (no-op on flat); worker clocks rewind separately.
  void ResetSimState();

  /// True when no flow is in flight or awaiting consumption (end-of-run
  /// invariant; trivially true on flat).
  bool SimIdle() const { return engine_ == nullptr || engine_->Idle(); }

  /// Reusable rendezvous for all `size` workers. `slot` lets callers use
  /// the two-phase max-clock sync without races.
  void BarrierWait();

  /// Publishes `value` to a per-rank slot and returns the max over all
  /// ranks once everyone has published (used to align simulated clocks).
  double MaxClockSync(int rank, double value);

  /// True if every mailbox is empty (test hook: no stray messages).
  bool AllMailboxesEmpty() const;

  /// Attaches the SPMD protocol verifier (see `simnet/protocol_check.h`).
  /// Once attached, every blocking wait also watches `checker->failed()`
  /// and throws `ProtocolViolation` instead of waiting out a diagnosed
  /// divergence. Call while no worker threads run
  /// (`Cluster::EnableProtocolCheck` does).
  void set_protocol_checker(ProtocolChecker* checker) {
    protocol_ = checker;
  }

  /// Wakes every thread blocked in a receive, barrier, or clock sync so it
  /// can observe a diagnosed protocol violation and unwind. Called by the
  /// detecting thread (which holds no network locks).
  void InterruptWaiters();

 private:
  struct Mailbox {
    /// Flat fabric only (event mode guards mailboxes with the engine
    /// mutex). All P^2 mailbox mutexes are one lock-order family.
    lockcheck::OrderedMutex mutex{"simnet.mailbox"};
    std::condition_variable_any cv;
    std::deque<Packet> queue;
  };

  /// Flat fabric only: blocks until a packet with `tag` from `src` to
  /// `dst` is available and removes it (FIFO per tag).
  Packet Take(int src, int dst, int tag);

  /// Throws `ProtocolViolation` when the attached checker has diagnosed a
  /// divergence (no-op otherwise). Called at every wait site.
  void ThrowIfInterrupted() const;

  /// Lock-free poll for wait predicates.
  bool interrupted() const;

  /// The (src, dst) mailbox, created on first touch. Mailboxes are lazy
  /// because the pair table is P^2: at P = 4096 eager construction is
  /// ~16.7M boxes (gigabytes, and most pairs never talk — SparDL's
  /// dense collectives are ring/doubling-shaped). Creation races resolve
  /// by CAS; the loser frees its box and adopts the winner's.
  Mailbox& BoxFor(int src, int dst);

  size_t MailboxCount() const {
    return static_cast<size_t>(size_) * static_cast<size_t>(size_);
  }

  std::unique_ptr<Topology> topology_;
  /// Non-null exactly when `topology_` is a `FlatTopology`, whose closed
  /// form `RecvPacket` charges directly.
  const FlatTopology* flat_ = nullptr;
  /// Non-null on every other fabric. There the engine's mutex guards the
  /// mailboxes and the barrier/sync state below; the per-mailbox mutexes
  /// and `barrier_mutex_`/`sync_mutex_` go unused.
  std::unique_ptr<EventEngine> engine_;
  ProtocolChecker* protocol_ = nullptr;
  int size_;
  double recv_timeout_seconds_ = 120.0;
  /// P^2 lazily-populated slots (see `BoxFor`); null until first touch.
  /// Owned: the destructor deletes every created box.
  std::unique_ptr<std::atomic<Mailbox*>[]> mailboxes_;
  /// Packets posted and not yet received, over all mailboxes: makes
  /// `AllMailboxesEmpty` O(1) instead of a walk over P^2 slots. Atomic
  /// because thread-backend workers post and receive under different
  /// mailbox mutexes.
  std::atomic<int64_t> queued_packets_{0};

  // Reusable barrier (generation-counted; std::barrier needs a fixed
  // completion type, a hand-rolled one is simpler to reuse).
  lockcheck::OrderedMutex barrier_mutex_{"simnet.barrier"};
  std::condition_variable_any barrier_cv_;
  int barrier_waiting_ = 0;
  uint64_t barrier_generation_ = 0;

  // Max-clock sync state.
  lockcheck::OrderedMutex sync_mutex_{"simnet.sync"};
  std::condition_variable_any sync_cv_;
  int sync_count_ = 0;
  double sync_max_ = 0.0;
  double sync_result_ = 0.0;
  uint64_t sync_generation_ = 0;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_NETWORK_H_
