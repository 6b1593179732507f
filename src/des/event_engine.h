#ifndef SPARDL_DES_EVENT_ENGINE_H_
#define SPARDL_DES_EVENT_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/lockcheck.h"
#include "obs/trace.h"
#include "topo/topology.h"

namespace spardl {

/// A message in flight through the event engine, identified by a
/// deterministic key (see `EventEngine::InjectFlowLocked`). One flow has at
/// most one pending event: the arrival of its header at `path[hop]`.
struct Flow {
  std::vector<LinkId> path;
  size_t words = 0;
  int hop = 0;
  /// Max serialization time over the hops crossed so far (cut-through: the
  /// body is serialized once, at the bottleneck link).
  double bottleneck = 0.0;
  /// Endpoints and send time, kept for the flow dependency record handed
  /// to the trace recorder when the flow resolves.
  int src = -1;
  int dst = -1;
  double sent_at = 0.0;
  /// Per-hop service record, filled only while a trace recorder is
  /// attached (analysis needs the full dependency chain; the plain
  /// charge path should not pay for it).
  std::vector<FlowHop> hops;
};

/// Min-heap of per-hop transmission events, ordered by `(time, flow key)`.
///
/// The flow key embeds `(src, dst, sender's sequence)` in that
/// significance order, so ties at equal simulated time break by sender
/// rank, then receiver rank, then the sender's own (deterministic) send
/// order — never by wall-clock arrival or thread interleaving.
class EventQueue {
 public:
  struct Event {
    double time;
    uint64_t flow;
  };

  void Push(double time, uint64_t flow) { heap_.push(Event{time, flow}); }
  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  /// Removes and returns the earliest event. Undefined when empty.
  Event PopEarliest() {
    Event event = heap_.top();
    heap_.pop();
    return event;
  }

  /// Simulated time of the earliest event. Undefined when empty.
  double NextTime() const { return heap_.top().time; }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.flow > b.flow;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

/// Per-link FIFO transmission server: tracks until when the link is
/// occupied and applies the cut-through hop arithmetic. On an uncontended
/// path the served hops add up to sum(alpha) + max(beta * words), the
/// fabric's reference budget.
class LinkServer {
 public:
  /// Serves one header arriving at `head_in`: the header leaves at
  /// `max(head_in, busy_until) + alpha` and the link stays occupied until
  /// the whole body (serialization `serialize`) has crossed. Returns the
  /// header's departure time. `bytes` only feeds the usage counters.
  double Serve(double head_in, double alpha, double serialize,
               uint64_t bytes = 0) {
    const double wait = busy_until_ > head_in ? busy_until_ - head_in : 0.0;
    const double start = head_in + wait;
    const double head_out = start + alpha;
    busy_until_ = head_out + serialize;
    usage_.busy_seconds += alpha + serialize;
    usage_.bytes += bytes;
    usage_.messages += 1;
    if (wait > usage_.max_queue_seconds) usage_.max_queue_seconds = wait;
    return head_out;
  }

  double busy_until() const { return busy_until_; }
  const LinkUsage& usage() const { return usage_; }
  void Reset() {
    busy_until_ = 0.0;
    usage_ = LinkUsage{};
  }

 private:
  double busy_until_ = 0.0;
  LinkUsage usage_;
};

/// The deterministic discrete-event engine that charges every non-flat
/// fabric.
///
/// A flow is injected when its *sender* posts it (link occupancy is
/// anchored at logical send times, so no receiver-side information is
/// needed), and per-hop transmission events are processed in
/// `(time, flow key)` order from a global `EventQueue`. Two flows
/// contending for a link therefore queue in an order fixed by the SPMD
/// program, never by which receiving thread happened to run first, so
/// contended times are bit-identical across runs and backends.
///
/// Conservative processing: worker threads run freely between blocking
/// points; the queue is pumped at *quiescent cuts* — every registered
/// worker is blocked AND no sleeping worker's wake predicate currently
/// holds. At such a cut the injected flow set is a pure function of the
/// SPMD program, not of thread scheduling, and any flow a blocked worker
/// can inject after being released carries a send time no earlier than the
/// arrival that released it, which is itself no earlier than the earliest
/// pending event — so consuming events in `(time, key)` order is safe.
/// Pumping pauses the moment a resolution makes some sleeper's predicate
/// true (the released worker may inject new, earlier-keyed flows that must
/// precede later queue entries). Which thread pumps depends on
/// scheduling; the event order does not.
///
/// Safe-horizon pumping: waiting for *full* quiescence serializes
/// contended phases behind the last runnable thread, so a blocked thread
/// may additionally pump any event strictly earlier than the min over
/// all workers' published clocks (`PublishClock` / `HorizonLocked`):
/// per-worker clocks are monotone, so every future injection sorts at or
/// after that horizon and the global `(time, key)` pump order — and with
/// it every simulated result — is bit-identical to quiescence-only
/// pumping; events are simply processed earlier in wall time.
///
/// Cooperative backend: fibers never call `BlockUntil`. `Network` hands
/// their waits to the scheduler, which pumps via the public
/// `PumpOneLocked` hook at its own all-workers-blocked cuts, so the
/// quiescence/sleeper machinery below sits idle.
///
/// Locking: one engine mutex guards everything — flows, links, queue,
/// sleeper registry, and (via `mu()`) the `Network` state that must change
/// atomically with them in event mode (inboxes, barrier, clock sync).
/// Every worker-thread wait goes through `BlockUntil`, so the last
/// runnable thread always pumps instead of sleeping and the queue can
/// never be starved by sleepers.
class EventEngine {
 public:
  /// `topology` must outlive the engine; link parameters (including
  /// `SetNodeScale` scaling) are read through it at serve time.
  explicit EventEngine(const Topology& topology);

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// The engine mutex. `Network` holds it (via `std::unique_lock`) across
  /// every event-mode inbox/barrier/sync operation. Lock-order checked
  /// in debug builds (family "simnet.engine").
  lockcheck::OrderedMutex& mu() { return mu_; }

  /// Worker-thread registration (from `Cluster::Run`): `BlockUntil` pumps
  /// only when all registered workers are blocked. With no registrations
  /// (single-threaded use), every blocking wait pumps immediately.
  void WorkerEnter();
  void WorkerExit();

  /// Injects a `words`-word flow from `src` to `dst` at simulated time
  /// `sent_at` and returns its deterministic key: `(src*P + dst) << 32 |
  /// seq`, where `seq` counts every flow `src` has injected. Keys of
  /// distinct pairs order by the upper half; within a pair `seq` grows
  /// with send order. Caller holds `mu()`. Key 0 is never returned (the
  /// self-pair (0, 0) cannot send).
  uint64_t InjectFlowLocked(int src, int dst, size_t words, double sent_at);

  /// True once `flow`'s arrival time has been computed. Caller holds
  /// `mu()`.
  bool ResolvedLocked(uint64_t flow) const {
    return resolved_.count(flow) != 0;
  }

  /// Consumes and returns `flow`'s arrival time; CHECK-fails unless
  /// resolved. Caller holds `mu()`.
  double TakeArrivalLocked(uint64_t flow);

  /// Blocks a worker thread until `pred()` holds, pumping the event
  /// queue at quiescent cuts. `pred` is evaluated only under `mu()` — by
  /// this thread, and by whichever thread is deciding whether pumping may
  /// proceed — so it must be a pure function of engine/network state
  /// guarded by `mu()`. Like `condition_variable::wait_until`, returns
  /// `pred()` once `deadline` passes; the caller turns false into its
  /// deadlock diagnostic. Caller holds `mu()` via `lock`.
  bool BlockUntil(std::unique_lock<lockcheck::OrderedMutex>& lock,
                  const std::function<bool()>& pred,
                  std::chrono::steady_clock::time_point deadline);

  /// Wakes every blocked thread (after posting a packet, releasing a
  /// barrier, ...). Caller holds `mu()`.
  void NotifyAllLocked() { cv_.notify_all(); }

  /// Publishes `rank`'s simulated clock for the safe-horizon pump rule
  /// (called from `Comm` on every clock change, without `mu()`). Relaxed
  /// atomics are sound here because per-worker clocks are *monotone
  /// within a run*: any flow `rank` injects later carries
  /// `sent_at >= now`, so a stale (lower) read only makes the horizon
  /// more conservative, never wrong. `Comm::ResetClock` is the one
  /// rewind, and it happens between runs while no worker executes.
  void PublishClock(int rank, double now) {
    clocks_[static_cast<size_t>(rank)].value.store(
        now, std::memory_order_relaxed);
  }

  /// True when no per-hop event is pending. Caller holds `mu()`.
  bool QueueEmptyLocked() const { return queue_.Empty(); }

  /// Processes the earliest event: serves one hop, schedules the next,
  /// and on the final hop records the flow's arrival. Returns the
  /// resolved flow key, or 0 for a mid-path hop. Caller holds `mu()`.
  /// Public for the cooperative scheduler, which pumps at its own
  /// all-workers-blocked cuts (`CoopScheduler::PumpEngine`).
  uint64_t PumpOneLocked();

  /// Clears per-link busy clocks between measured phases; CHECK-fails if
  /// flows are still in flight (reset mid-collective is a bug).
  void Reset();

  /// True when no flow is in flight or awaiting consumption (end-of-run
  /// invariant, checked by `Cluster::Run`).
  bool Idle() const;

  /// Cumulative charge counters for one link. Thread-safe.
  LinkUsage link_usage(LinkId id) const;

  /// Attaches a span recorder: every pumped hop records one `kLink`
  /// occupancy span, in the engine's deterministic `(time, flow key)`
  /// order. Set while no worker threads run.
  void set_trace_recorder(TraceRecorder* recorder);

 private:
  struct Sleeper {
    const std::function<bool()>* pred;
  };

  /// One worker's published clock, cache-line padded: every clock change
  /// stores here, and false sharing across 4096 workers would put the
  /// stores on the simulation's hot path.
  struct alignas(64) PublishedClock {
    std::atomic<double> value{0.0};
  };

  /// True when some sleeping thread's predicate already holds — it must
  /// wake and run before any further event is processed.
  bool AnySleeperReadyLocked() const;

  /// The safe horizon: min over all workers' published clocks. Every
  /// *future* injection carries `sent_at >=` its sender's clock, so any
  /// pending event strictly below this min is already globally earliest
  /// and safe to pump before full quiescence (strict `<` so an event
  /// tied at the horizon still waits — a runnable worker could inject an
  /// equal-time, smaller-keyed flow).
  double HorizonLocked() const;

  const Topology& topology_;
  mutable lockcheck::OrderedMutex mu_{"simnet.engine"};
  /// `_any` so waits release/re-acquire through the checked mutex (the
  /// held-lock stack stays exact across the wait).
  std::condition_variable_any cv_;

  int active_ = 0;   // registered worker threads
  int blocked_ = 0;  // threads currently inside BlockUntil

  EventQueue queue_;
  std::vector<PublishedClock> clocks_;  // by rank, written lock-free
  TraceRecorder* trace_recorder_ = nullptr;
  std::vector<LinkServer> links_;                  // by LinkId
  std::vector<uint32_t> send_seq_;                 // flows injected, by src
  std::unordered_map<uint64_t, Flow> flows_;       // in flight
  std::unordered_map<uint64_t, double> resolved_;  // arrival times
  std::list<Sleeper> sleepers_;                    // threads in cv_.wait
};

}  // namespace spardl

#endif  // SPARDL_DES_EVENT_ENGINE_H_
