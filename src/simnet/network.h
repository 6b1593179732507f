#ifndef SPARDL_SIMNET_NETWORK_H_
#define SPARDL_SIMNET_NETWORK_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
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
/// delivery is FIFO per (src, dst, tag). Thread-safe; each of the P
/// workers owns one endpoint (see `Comm`) and is the only one that waits
/// on its inbox.
///
/// Blocking: receive, barrier and clock sync all block through one
/// private `Wait`. On the cooperative backend it yields the fiber; on
/// threads it is the event engine's `BlockUntil` on a non-flat fabric and
/// a condition wait on flat. Every thread-backend wait aborts the
/// process after `recv_timeout_seconds` of *wall* time — a hung
/// collective is always a bug, and a loud failure beats a silent
/// deadlock in CI.
///
/// Charging: the topology kind alone decides. `FlatTopology` is charged
/// by its closed form inside `Recv` (`FlatTopology::ChargeMessage`),
/// with per-inbox locks. Every other fabric runs a `des::`-style
/// `EventEngine` — flows are injected at `Post` time, per-hop events are
/// processed in `(time, flow key)` order, and the inboxes and barrier
/// state are guarded by the engine's single mutex so the last runnable
/// thread pumps the queue. Both paths are deterministic on both
/// execution backends.
class Network {
 public:
  /// Flat crossbar shorthand: the paper's alpha-beta model.
  Network(int size, CostModel cost_model);

  /// Any fabric: message costs are delegated to `topology` (which fixes the
  /// worker count).
  explicit Network(std::unique_ptr<Topology> topology);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

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

  /// Reusable rendezvous for all `size` workers.
  void BarrierWait();

  /// Publishes `value` to a per-rank slot and returns the max over all
  /// ranks once everyone has published (used to align simulated clocks).
  double MaxClockSync(int rank, double value);

  /// True if every inbox is empty (end-of-run invariant: no stray
  /// messages). Call only while no worker runs; `Cluster::Run` does,
  /// after its workers finish.
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
  /// One receiving worker's undelivered packets, from every sender, in
  /// post order.
  struct Inbox {
    /// Flat fabric only (event fabrics guard inboxes with the engine
    /// mutex). All P inbox mutexes are one lock-order family.
    lockcheck::OrderedMutex mutex{"simnet.inbox"};
    std::condition_variable_any cv;
    std::deque<Packet> queue;
  };

  /// The mutex guarding state whose flat-fabric lock is `flat_mutex`:
  /// the engine's on every other fabric, so that state changes
  /// atomically with the flows.
  lockcheck::OrderedMutex& MutexFor(lockcheck::OrderedMutex& flat_mutex) {
    return engine_ ? engine_->mu() : flat_mutex;
  }

  /// Wakes every thread waiting on `cv` (flat) or in the engine. Caller
  /// holds `MutexFor` of `cv`'s mutex.
  void NotifyAllLocked(std::condition_variable_any& cv);

  /// The one blocking primitive: waits under `lock` until `pred()` holds
  /// or a protocol violation is diagnosed, then throws
  /// `ProtocolViolation` in the latter case. `cv` is the flat fabric's
  /// condition variable for the state `pred` reads; `describe` names the
  /// wait in the timeout and deadlock diagnostics.
  void Wait(std::unique_lock<lockcheck::OrderedMutex>& lock,
            std::condition_variable_any& cv,
            const std::function<bool()>& pred,
            const std::function<std::string()>& describe);

  /// Throws `ProtocolViolation` when the attached checker has diagnosed a
  /// divergence (no-op otherwise).
  void ThrowIfInterrupted() const;

  /// Lock-free poll for wait predicates.
  bool interrupted() const;

  std::unique_ptr<Topology> topology_;
  /// Non-null exactly when `topology_` is a `FlatTopology`, whose closed
  /// form `RecvPacket` charges directly.
  const FlatTopology* flat_ = nullptr;
  /// Non-null on every other fabric. There the engine's mutex guards the
  /// inboxes and the barrier/sync state below; the inbox mutexes and
  /// `sync_mutex_` go unused.
  std::unique_ptr<EventEngine> engine_;
  ProtocolChecker* protocol_ = nullptr;
  int size_;
  double recv_timeout_seconds_ = 120.0;
  std::vector<Inbox> inboxes_;  // by receiving rank

  /// Flat fabric's lock and condition variable for both rendezvous
  /// below. Their state machines stay separate, so a program that mixes
  /// the two barrier kinds cannot rendezvous by accident.
  lockcheck::OrderedMutex sync_mutex_{"simnet.sync"};
  std::condition_variable_any sync_cv_;

  // Reusable barrier (generation-counted; std::barrier needs a fixed
  // completion type, a hand-rolled one is simpler to reuse).
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
