#ifndef SPARDL_OBS_TRACE_H_
#define SPARDL_OBS_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace spardl {

/// Phase tag for simulated-time attribution. Every `Comm` carries a
/// current phase (maintained by `TraceScope`, zero-cost: one enum write);
/// `Recv` charges its wait into the matching `CommStats::phase_seconds`
/// bucket, so the breakdown survives even with tracing disabled.
///
/// The first block of tags (up to and including `kBucket`) partitions
/// `comm_seconds`; `kCompute` mirrors `compute_seconds`; `kBarrier` and
/// `kOverlapIdle` are waits charged to neither; `kLink` marks per-link
/// occupancy spans (fabric tracks, not worker time).
enum class Phase : uint8_t {
  kUntagged = 0,  // Recv outside any scope
  kSparsify,      // top-k selection / re-sparsification
  kSrs,           // Spar-Reduce-Scatter transmission steps
  kSag,           // inter-team R-SAG / B-SAG rounds
  kAllGather,     // final intra-team all-gather
  kResidual,      // residual-store update
  kCollective,    // whole-collective envelope (baseline core, allreduce)
  kBucket,        // one gradient bucket's collective (overlap trainer)
  kCompute,       // Comm::Compute (forward/backward slices)
  kBarrier,       // BarrierSyncClocks alignment wait
  kOverlapIdle,   // AdvanceClockTo stall (comm stream waiting on a bucket)
  kLink,          // per-link occupancy (fabric tracks)
  kNumPhases,
};

inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kNumPhases);

std::string_view PhaseName(Phase phase);

/// True for the tags that partition `CommStats::comm_seconds` (everything
/// a `Recv` can be charged under).
constexpr bool IsCommPhase(Phase phase) {
  return phase < Phase::kCompute;
}

/// Which virtual track of a worker a span belongs to. The nesting
/// invariant (spans nest, never partially overlap) holds per
/// (track, stream): the overlap trainer's compute slices legitimately run
/// concurrently with the communication stream.
inline constexpr uint8_t kStreamMain = 0;     // communication / algorithm
inline constexpr uint8_t kStreamCompute = 1;  // overlapped compute slices
inline constexpr uint8_t kStreamLink = 2;     // fabric link occupancy

/// One recorded interval in *simulated* time. `name` must be a string
/// literal (static storage) — recording never allocates; display names are
/// composed at export time from `name` and the small-int args `a`/`b`
/// (step index, bucket index, or peer/endpoint ranks, -1 = unused).
struct TraceSpan {
  int track = 0;  // worker rank, or LinkId for kStreamLink
  uint8_t stream = kStreamMain;
  Phase phase = Phase::kUntagged;
  const char* name = "";
  int a = -1;
  int b = -1;
  double t0 = 0.0;
  double t1 = 0.0;
  uint64_t bytes = 0;
};

/// One completed `Comm::Recv`, recorded in the same order as that
/// worker's "recv" spans on `kStreamMain` (zip the two sequences by
/// ordinal to pair a wait span with its delivery metadata). `flow` is
/// the event-engine flow key (0 on closed-form fabrics); `sent_at` is
/// the sender's simulated clock at `Send`.
struct RecvRecord {
  int src = -1;
  uint64_t flow = 0;
  double sent_at = 0.0;
  size_t words = 0;
};

/// One hop of an event-engine flow through a link's FIFO server:
/// the head enters the queue at `enter`, starts service at `start`
/// (`start - enter` is queueing), occupies the wire head for the link's
/// alpha until `head_out`, and the body takes `serialize` seconds to
/// drain behind it. Links are graph LinkIds (plain int here, so this
/// header stays independent of topo/).
struct FlowHop {
  int link = -1;
  double enter = 0.0;
  double start = 0.0;
  double head_out = 0.0;
  double serialize = 0.0;
};

/// Full dependency record of one resolved event-engine flow: per-hop
/// service times plus the end-to-end `sent_at -> arrival` envelope
/// (arrival = last hop's head_out + the bottleneck serialize).
struct FlowRecord {
  int src = -1;
  int dst = -1;
  size_t words = 0;
  double sent_at = 0.0;
  double arrival = 0.0;
  std::vector<FlowHop> hops;
};

/// Snapshot of one worker's cumulative counters at an iteration
/// boundary (`Comm::MarkIteration`). Fields are copied out of CommStats
/// rather than embedding it (comm_stats.h includes this header).
struct IterationMark {
  double sim_now = 0.0;
  double comm_seconds = 0.0;
  double compute_seconds = 0.0;
  std::array<double, kNumPhases> phase_seconds{};
};

/// Per-cluster span storage. Off by default (`Cluster::EnableTracing`
/// creates one); every record site is gated on a null check, so the
/// disabled path costs one branch and zero allocations.
///
/// Not thread-safe, like the cluster it belongs to: every worker fiber
/// and the event engine's pump record from the cluster's one carrier
/// thread. `RecordWorker(w, ...)` appends to worker `w`'s own vector and
/// is only called by worker `w` (the SPMD ownership the whole simulator
/// is built on); `RecordLink` and `RecordFlow` by the engine's pump.
/// `Clear` requires no workers running.
class TraceRecorder {
 public:
  explicit TraceRecorder(int num_workers);

  int num_workers() const { return static_cast<int>(worker_spans_.size()); }

  void RecordWorker(int worker, const TraceSpan& span) {
    worker_spans_[static_cast<size_t>(worker)].push_back(span);
  }

  void RecordLink(const TraceSpan& span) { link_spans_.push_back(span); }

  const std::vector<TraceSpan>& worker_spans(int worker) const {
    return worker_spans_[static_cast<size_t>(worker)];
  }
  const std::vector<TraceSpan>& link_spans() const { return link_spans_; }

  /// Delivery metadata, same ownership rule as `RecordWorker`.
  void RecordRecv(int worker, const RecvRecord& rec) {
    recv_records_[static_cast<size_t>(worker)].push_back(rec);
  }
  const std::vector<RecvRecord>& recv_records(int worker) const {
    return recv_records_[static_cast<size_t>(worker)];
  }

  /// Flow dependency records, keyed by the engine's flow key. Called
  /// under the event-engine mutex (same rule as `RecordLink`).
  void RecordFlow(uint64_t key, FlowRecord rec);
  const FlowRecord* FindFlow(uint64_t key) const;
  const std::unordered_map<uint64_t, FlowRecord>& flow_records() const {
    return flow_records_;
  }

  /// Iteration boundaries, same ownership rule as `RecordWorker`.
  void MarkIteration(int worker, const IterationMark& mark) {
    iteration_marks_[static_cast<size_t>(worker)].push_back(mark);
  }
  const std::vector<IterationMark>& iteration_marks(int worker) const {
    return iteration_marks_[static_cast<size_t>(worker)];
  }

  size_t TotalSpans() const;

  /// Drops all recorded state (capacity retained). Call between measured
  /// phases, in lockstep with `Cluster::ResetClocksAndStats`.
  void Clear();

 private:
  std::vector<std::vector<TraceSpan>> worker_spans_;
  std::vector<TraceSpan> link_spans_;
  std::vector<std::vector<RecvRecord>> recv_records_;
  std::unordered_map<uint64_t, FlowRecord> flow_records_;
  std::vector<std::vector<IterationMark>> iteration_marks_;
};

}  // namespace spardl

#endif  // SPARDL_OBS_TRACE_H_
