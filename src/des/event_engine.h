#ifndef SPARDL_DES_EVENT_ENGINE_H_
#define SPARDL_DES_EVENT_ENGINE_H_

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "topo/topology.h"

namespace spardl {

/// A message in flight through the event engine, identified by a
/// deterministic key (see `EventEngine::InjectFlow`). One flow has at
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
/// order — never by wall-clock arrival or fiber interleaving.
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
/// program, never by which receiver happened to run first, so contended
/// times are bit-identical across runs and schedules.
///
/// Conservative processing: the engine only pumps when told to. Inside a
/// run the fiber scheduler pumps only at *quiescent cuts* — every worker
/// fiber is blocked and none of their wake predicates holds
/// (`CoopScheduler::PumpEngine`); outside one, a `Network` wait pumps in
/// place because nothing else can run. At such a cut the
/// injected flow set is a pure function of the SPMD program, and any flow
/// a blocked worker can inject after being released carries a send time
/// no earlier than the arrival that released it, which is itself no
/// earlier than the earliest pending event — so consuming events in
/// `(time, key)` order is safe. Pumping pauses the moment a resolution
/// releases some waiter (the released worker may inject new,
/// earlier-keyed flows that must precede later queue entries).
///
/// Not thread-safe: one simulation runs on one carrier thread, and the
/// engine belongs to that simulation's `Network`.
class EventEngine {
 public:
  /// `topology` must outlive the engine; link parameters (including
  /// `SetNodeScale` scaling) are read through it at serve time.
  explicit EventEngine(const Topology& topology);

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Injects a `words`-word flow from `src` to `dst` at simulated time
  /// `sent_at` and returns its deterministic key: `(src*P + dst) << 32 |
  /// seq`, where `seq` counts every flow `src` has injected. Keys of
  /// distinct pairs order by the upper half; within a pair `seq` grows
  /// with send order. Key 0 is never returned (the self-pair (0, 0)
  /// cannot send).
  uint64_t InjectFlow(int src, int dst, size_t words, double sent_at);

  /// True once `flow`'s arrival time has been computed.
  bool Resolved(uint64_t flow) const { return resolved_.count(flow) != 0; }

  /// Consumes and returns `flow`'s arrival time; CHECK-fails unless
  /// resolved.
  double TakeArrival(uint64_t flow);

  /// True when no per-hop event is pending.
  bool QueueEmpty() const { return queue_.Empty(); }

  /// Processes the earliest event: serves one hop, schedules the next,
  /// and on the final hop records the flow's arrival. Returns the
  /// resolved flow key, or 0 for a mid-path hop. Undefined when
  /// `QueueEmpty()`. The caller decides when pumping is safe (see the
  /// class comment).
  uint64_t PumpOne();

  /// Clears per-link busy clocks between measured phases; CHECK-fails if
  /// flows are still in flight (reset mid-collective is a bug).
  void Reset();

  /// True when no flow is in flight or awaiting consumption (end-of-run
  /// invariant, checked by `Cluster::Run`).
  bool Idle() const {
    return flows_.empty() && queue_.Empty() && resolved_.empty();
  }

  /// Cumulative charge counters for one link.
  LinkUsage link_usage(LinkId id) const;

  /// Attaches a span recorder: every pumped hop records one `kLink`
  /// occupancy span, in the engine's deterministic `(time, flow key)`
  /// order. Set between runs.
  void set_trace_recorder(TraceRecorder* recorder) {
    trace_recorder_ = recorder;
  }

 private:
  const Topology& topology_;
  EventQueue queue_;
  TraceRecorder* trace_recorder_ = nullptr;
  std::vector<LinkServer> links_;                  // by LinkId
  std::vector<uint32_t> send_seq_;                 // flows injected, by src
  std::unordered_map<uint64_t, Flow> flows_;       // in flight
  std::unordered_map<uint64_t, double> resolved_;  // arrival times
};

}  // namespace spardl

#endif  // SPARDL_DES_EVENT_ENGINE_H_
