#ifndef SPARDL_OBS_EXPORTERS_H_
#define SPARDL_OBS_EXPORTERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "simnet/comm_stats.h"

namespace spardl {

class Cluster;
class Topology;

/// Renders the cluster's recorded spans as Chrome trace-event JSON
/// (loadable in Perfetto / chrome://tracing): one track per worker, one
/// per overlapped-compute stream that carries spans, and one per hot link
/// (the `max_link_tracks` busiest traffic-carrying links). Returns an
/// empty-but-valid document when tracing is disabled.
///
/// Determinism: output is byte-identical across runs whenever the spans
/// are — which the event engine guarantees even on contended fabrics
/// (link spans are additionally sorted by `(t0, link, t1)`, so the
/// document layout does not depend on the order events were pumped).
std::string ChromeTraceJson(const Cluster& cluster,
                            size_t max_link_tracks = 8);

/// One run's structured metrics: the makespan, aggregated `CommStats`
/// (with the phase breakdown), and the traffic-carrying links
/// busiest-first.
struct RunMetrics {
  struct Link {
    int id = 0;  // LinkId
    std::string name;  // "w0->s8"
    double busy_seconds = 0.0;
    uint64_t bytes = 0;
    uint64_t messages = 0;
    double max_queue_seconds = 0.0;
    /// busy_seconds / makespan (0 when the makespan is 0).
    double utilization = 0.0;
  };

  std::string label;
  std::string topology;
  std::string engine;  // "event", or "closed-form" on flat
  int workers = 0;
  double makespan_seconds = 0.0;
  CommStats total;
  std::vector<Link> links;  // busy_seconds desc, then id asc
  /// Optional embedded `spardl-analysis/1` object (see
  /// `obs/analysis.h`'s `AnalysisJson`); emitted as the run's
  /// `"analysis"` key when non-empty.
  std::string analysis_json;
};

/// Snapshots `cluster`'s counters (works with tracing disabled — the
/// phase breakdown and link counters are always maintained).
RunMetrics CollectRunMetrics(const Cluster& cluster,
                             const std::string& label);

/// Serializes runs as a `spardl-run-metrics/2` JSON document (/2 added
/// the optional per-run `"analysis"` object; consumers of /1 documents
/// keep working — no field was removed or renamed).
std::string RunMetricsJson(const std::vector<RunMetrics>& runs);

/// Graph-edge display name ("w0->s8": workers are "w<rank>", switches
/// "s<id>"), shared by the exporters and the critical-path tables.
std::string LinkDisplayName(const Topology& topology, int link);

/// ASCII table of the top `top_n` links by busy time, with utilization
/// against the run's makespan.
std::string LinkUtilizationTable(const RunMetrics& metrics,
                                 size_t top_n = 10);

/// ASCII table of the nonzero phase buckets (busiest first) plus the
/// comm/compute aggregates.
std::string TopPhasesTable(const RunMetrics& metrics);

/// Writes `contents` to `path`; returns false on any I/O failure.
bool WriteTextFile(const std::string& path, const std::string& contents);

}  // namespace spardl

#endif  // SPARDL_OBS_EXPORTERS_H_
