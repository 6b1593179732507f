#ifndef SPARDL_OBS_ANALYSIS_H_
#define SPARDL_OBS_ANALYSIS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace spardl {

class Cluster;

/// What a critical-path segment's time was spent on.
///
/// `kCompute`/`kOverlapIdle` lie on a worker's own timeline; the three
/// `kLink*` kinds decompose an event-engine flow into per-hop queueing,
/// header latency, and (bottleneck) body serialization. The flat
/// fabric's closed form contributes alpha/serialize splits without a real
/// LinkId.
enum class SegmentKind : uint8_t {
  kCompute = 0,
  kOverlapIdle,
  kLinkQueue,
  kLinkAlpha,
  kLinkSerialize,
  kNumSegmentKinds,
};

inline constexpr size_t kNumSegmentKinds =
    static_cast<size_t>(SegmentKind::kNumSegmentKinds);

std::string_view SegmentKindName(SegmentKind kind);

/// One interval of the critical path, on global simulated time. Segments
/// are reported in forward time order and tile `[0, makespan]` exactly:
/// each segment's `t1` is the *same double* as its successor's `t0`.
struct CriticalSegment {
  double t0 = 0.0;
  double t1 = 0.0;
  SegmentKind kind = SegmentKind::kCompute;
  /// Worker whose wait/compute this interval explains (the receiver, for
  /// link segments).
  int worker = -1;
  /// LinkId for the kLink* kinds on a real fabric; -1 otherwise.
  int link = -1;
  /// The phase the explaining leaf ran under (kCompute / kOverlapIdle for
  /// the local kinds; the Recv's active phase for network kinds).
  Phase phase = Phase::kUntagged;

  double seconds() const { return t1 - t0; }
};

/// Per-link critical-path attribution (kLink* kinds only).
struct LinkContribution {
  int link = -1;
  std::string name;
  double queue_seconds = 0.0;
  double alpha_seconds = 0.0;
  double serialize_seconds = 0.0;

  double total() const {
    return queue_seconds + alpha_seconds + serialize_seconds;
  }
};

/// The extracted critical path plus its aggregates. `identity_ok` is the
/// enforced invariant: the backward walk produced an exactly-contiguous
/// chain from `makespan` down to 0 (every boundary matched bit-for-bit),
/// so the segments sum to the end-to-end simulated time.
struct CriticalPathReport {
  double makespan = 0.0;
  /// Sum of segment durations (equals `makespan` up to summation order
  /// when `identity_ok`).
  double path_seconds = 0.0;
  bool identity_ok = false;
  /// The worker whose final clock set the makespan (walk start).
  int end_worker = -1;
  std::vector<CriticalSegment> segments;  // forward time order
  std::array<double, kNumSegmentKinds> by_kind{};
  /// Seconds attributed per phase tag (every segment carries one).
  std::array<double, kNumPhases> by_phase{};
  /// Real-link attribution, total() desc then LinkId asc.
  std::vector<LinkContribution> by_link;
};

/// Walks the dependency chain backward from the cluster's last clock:
/// through compute and idle leaves on each worker's timeline, across
/// barriers to the worker that set the released clock, and through recv
/// waits into the event engine's per-hop flow records (or the closed-form
/// alpha/beta split on the flat fabric). Requires tracing to have been
/// enabled for the measured window; returns an empty non-ok report
/// otherwise. Deterministic: the report (and its JSON) is bit-identical
/// across runs.
CriticalPathReport ExtractCriticalPath(const Cluster& cluster);

/// One hypothetical re-pricing of the extracted path.
struct WhatIfResult {
  std::string name;
  /// Path length after shrinking the targeted segments.
  double path_seconds = 0.0;
  /// makespan / path_seconds (1.0 when nothing shrank; >= 1 always —
  /// hypotheticals only shrink segment durations).
  double speedup = 1.0;
};

/// Re-prices the critical path under standard hypotheticals: compute
/// free (kCompute + kOverlapIdle zeroed), alpha zeroed, trunk links'
/// beta halved (links with both endpoints >= P, i.e. switch-to-switch),
/// and all serialization halved. Each is an *optimistic bound*: the
/// real optimum may shift the path onto a different chain, so actual
/// speedup can be lower, never higher. Monotone by construction.
std::vector<WhatIfResult> EstimateWhatIfs(const CriticalPathReport& report,
                                          const Cluster& cluster);

/// ASCII rendering: per-kind summary with the identity line, then the
/// top per-link contributors.
std::string CriticalPathTable(const CriticalPathReport& report,
                              size_t top_links = 8);

std::string WhatIfTable(const std::vector<WhatIfResult>& results);

/// The `"analysis"` JSON fragment embedded into run-metrics documents
/// (schema tag `spardl-analysis/1` inside the object): aggregates plus
/// the what-if table, no raw segments. `%.17g` numbers — bit-identical
/// whenever the report is.
std::string AnalysisJson(const CriticalPathReport& report,
                         const std::vector<WhatIfResult>& what_ifs);

/// Fixed-bucket histogram over a closed value range: `buckets` equal
/// cells between the observed min and max. Quantiles interpolate to the
/// lower edge of the covering bucket — coarse but allocation-bounded,
/// which is all the per-iteration skew summary needs.
class FixedBucketHistogram {
 public:
  explicit FixedBucketHistogram(size_t buckets = 64);

  void Add(double value);
  size_t count() const { return values_.size(); }

  /// q in [0, 1]; 0 when empty. Exact at q=0 and q=1 (observed min/max).
  double Quantile(double q) const;

 private:
  size_t buckets_;
  std::vector<double> values_;
};

/// One iteration row of the time series: cross-worker distribution of
/// the per-iteration wall clock plus mean comm/compute and phase deltas.
struct IterationStat {
  int iteration = 0;
  double wall_min = 0.0;
  double wall_median = 0.0;
  double wall_max = 0.0;
  double wall_p99 = 0.0;
  double comm_mean = 0.0;
  double compute_mean = 0.0;
  std::array<double, kNumPhases> phase_mean{};
};

/// A worker whose mean iteration wall exceeded the cross-worker median
/// by the configured factor.
struct StragglerEntry {
  int worker = -1;
  double mean_wall = 0.0;
  /// mean_wall / median of per-worker means.
  double ratio = 0.0;
};

struct TimeSeriesReport {
  int workers = 0;
  int iterations = 0;
  double straggler_factor = 0.0;
  /// Median over workers of the per-worker mean iteration wall.
  double median_worker_wall = 0.0;
  std::vector<IterationStat> series;
  std::vector<StragglerEntry> stragglers;  // ratio desc, worker asc
};

/// Default straggler threshold; `SPARDL_STRAGGLER_FACTOR` overrides it
/// in the bench harness.
inline constexpr double kDefaultStragglerFactor = 1.5;

/// Builds the series from the `Comm::MarkIteration` marks recorded for
/// the measured window (empty report when tracing was off or no marks
/// were recorded). Iterations with marks missing on some worker (the
/// marks past the shortest per-worker sequence) are dropped.
TimeSeriesReport BuildTimeSeries(const Cluster& cluster,
                                 double straggler_factor =
                                     kDefaultStragglerFactor);

/// Serializes the report as a standalone `spardl-timeseries/1` document.
/// `%.17g` numbers: byte-identical across runs whenever the marks are
/// (guaranteed on the event engine).
std::string TimeSeriesJson(const TimeSeriesReport& report,
                           const std::string& label);

/// ASCII table: one row per iteration (wall min/median/max/p99, mean
/// comm/compute).
std::string TimeSeriesTable(const TimeSeriesReport& report);

/// ASCII straggler summary ("none" line when no worker crossed the
/// threshold).
std::string StragglerTable(const TimeSeriesReport& report);

}  // namespace spardl

#endif  // SPARDL_OBS_ANALYSIS_H_
