#ifndef SPARDL_BENCH_BENCH_UTIL_H_
#define SPARDL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "dl/grad_profile.h"
#include "simnet/cluster.h"
#include "topo/placement.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace bench {

/// Shared harness CLI: every bench main accepts
///
///   --workers=N / --workers N       cluster size override
///   --iterations=N / --iterations N measured iterations override
///   --topology=SPEC                 fabric override ("fattree:4x8x2", ...)
///   --backend=thread|fiber          worker execution backend override
///   --placement=POLICY              team layout (contiguous|rack|interleaved)
///   --trace-out=PATH                Chrome trace JSON of the last traced run
///   --metrics-out=PATH              structured run-metrics JSON (all runs)
///   --metrics-csv=PATH              per-run numeric series as CSV
///   --timeseries-out=PATH           per-iteration time-series JSON (last run)
///
/// with `SPARDL_BENCH_WORKERS` / `SPARDL_BENCH_ITERATIONS` /
/// `SPARDL_BENCH_TOPOLOGY` / `SPARDL_BENCH_BACKEND` /
/// `SPARDL_BENCH_PLACEMENT` / `SPARDL_BENCH_TRACE_OUT` /
/// `SPARDL_BENCH_METRICS_OUT` / `SPARDL_BENCH_METRICS_CSV` /
/// `SPARDL_BENCH_TIMESERIES_OUT` environment variables as defaults
/// (flag > env > the bench's built-in value), so CI can run the expensive
/// harnesses at smoke-tier sizes — and on any fabric/team layout,
/// with artifacts — without editing code. Unknown `--` flags abort with a
/// usage message; positional args are left for the bench to interpret.
///
/// `ParseHarnessArgs` registers the four output paths process-globally;
/// the shared measurement helpers (`MeasurePerUpdate`, `RunTrainingCase`)
/// then enable tracing and persist artifacts via `ObserveRun` with no
/// per-bench code.
struct HarnessArgs {
  std::optional<int> workers;
  std::optional<int> iterations;
  /// A `TopologySpec::Parse` string.
  std::optional<std::string> topology;
  /// `--backend thread|fiber`: worker execution backend for every
  /// cluster this bench builds (unset = the process default, i.e.
  /// `SPARDL_EXEC_BACKEND` or thread-per-worker).
  std::optional<ExecBackend> backend;
  std::optional<PlacementPolicy> placement;
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  std::optional<std::string> metrics_csv;
  std::optional<std::string> timeseries_out;
  /// `--protocol-check` / `SPARDL_BENCH_PROTOCOL_CHECK=1`: run every
  /// cluster with the SPMD protocol verifier attached; a diagnosed
  /// divergence aborts the bench with the verifier's report.
  bool protocol_check = false;

  int workers_or(int fallback) const { return workers.value_or(fallback); }
  int iterations_or(int fallback) const {
    return iterations.value_or(fallback);
  }
  PlacementPolicy placement_or(PlacementPolicy fallback) const {
    return placement.value_or(fallback);
  }

  /// The fabric this run should use: `--topology` (parsed with `workers`
  /// and `cost`) when given, else `fallback` (nullopt = the bench's
  /// default, usually flat). Parse and build errors abort with a usage
  /// message.
  std::optional<TopologySpec> TopologyOr(
      std::optional<TopologySpec> fallback, int num_workers,
      CostModel cost = CostModel::Ethernet()) const;
};

HarnessArgs ParseHarnessArgs(int argc, char** argv);

/// True once `ParseHarnessArgs` saw any observability sink
/// (--trace-out / --metrics-out / --metrics-csv / --timeseries-out or
/// their env defaults).
bool ObservabilityEnabled();

/// Turns span recording on for `cluster` when observability is enabled
/// (no-op otherwise). Call after constructing the cluster, before the
/// measured iterations.
void MaybeEnableObservability(Cluster& cluster);

/// True once `ParseHarnessArgs` saw `--protocol-check` (or its env
/// default).
bool ProtocolCheckEnabled();

/// Attaches the SPMD protocol verifier to `cluster` when
/// `--protocol-check` was given (no-op otherwise). The shared measurement
/// helpers call this themselves; benches that build their own clusters
/// should call it after construction, before running workers.
void MaybeEnableProtocolCheck(Cluster& cluster);

/// Applies the harness `--backend` selection to `cluster` (no-op when
/// the flag was not given — the cluster then keeps the process default,
/// `Cluster::DefaultExecBackend`). Same calling convention as
/// `MaybeEnableProtocolCheck`: after construction, before running.
void ApplyExecBackend(Cluster& cluster);

/// Records one finished measurement run against the configured sinks:
/// appends the run's `RunMetrics` (with its embedded critical-path
/// analysis) and rewrites the metrics JSON/CSV, and rewrites the Chrome
/// trace and time-series JSON with this cluster's data (multiple observed
/// runs: the *last* trace/time-series wins; the metrics files keep every
/// run). Prints the top-links, critical-path, what-if, and straggler
/// tables to stdout. The straggler threshold is
/// `SPARDL_STRAGGLER_FACTOR` (default 1.5). Exits non-zero with a message
/// on any write failure. No-op when observability is disabled.
void ObserveRun(Cluster& cluster, const std::string& label);

/// The default fabric sweep shared by `bench_ext_topology` and
/// `examples/topology_explorer`: flat, star, two-rack fat-tree
/// (single-core and 2-core ECMP), ring, and — for even P >= 4 — a
/// (P/2) x 2 torus. One list so the two surfaces cannot drift.
std::vector<TopologySpec> DefaultFabricSweep(
    int num_workers, CostModel cost = CostModel::Ethernet());

/// Resolves a run's fabric from an optional per-options override: falls
/// back to the flat `cost_model` crossbar, fills a 0 worker count in the
/// spec from `num_workers`, and CHECKs the two agree. Shared by
/// `MeasurePerUpdate` and `RunTrainingCase` so the per-update benches and
/// the convergence harnesses can never resolve a `TopologySpec`
/// differently.
TopologySpec ResolveFabric(const std::optional<TopologySpec>& topology,
                           int num_workers, CostModel cost_model);

/// Result of measuring one method's per-update communication on a
/// paper-scale gradient profile.
struct PerUpdateResult {
  std::string algo_label;
  /// Simulated communication seconds per update (max over workers,
  /// averaged over measured iterations).
  double comm_seconds = 0.0;
  /// Modelled forward+backward seconds (the profile's compute constant).
  double compute_seconds = 0.0;
  /// Per-worker received words / messages per update (max over workers).
  double words_per_update = 0.0;
  double messages_per_update = 0.0;

  double total_seconds() const { return comm_seconds + compute_seconds; }
};

/// Options for a per-update measurement run.
struct PerUpdateOptions {
  int num_workers = 14;
  double k_ratio = 0.01;
  CostModel cost_model = CostModel::Ethernet();
  /// When set, the cluster runs on this fabric instead of the flat
  /// `cost_model` crossbar. A `num_workers` of 0 in the spec inherits
  /// `num_workers` above; otherwise the two must agree.
  std::optional<TopologySpec> topology;
  /// Candidate entries per worker = candidate_factor * k.
  double candidate_factor = 1.5;
  int warmup_iterations = 1;
  int measured_iterations = 2;
  int num_teams = 1;          // for "spardl"
  /// Team layout planned against the run's resolved fabric (for "spardl"
  /// with num_teams > 1; ignored by the baselines).
  PlacementPolicy placement = PlacementPolicy::kContiguous;
  uint64_t seed = 2024;
  /// Heterogeneous compute (the §VI extension on the compute side):
  /// (worker, multiplier) pairs fed to
  /// `ProfileGradientGenerator::SetComputeMultiplier`. When non-empty,
  /// every worker charges `profile.compute_seconds` (scaled by its
  /// multiplier) to its clock each iteration, so compute-slow workers
  /// surface in the per-iteration straggler report. Empty (default)
  /// keeps the legacy communication-only measurement.
  std::vector<std::pair<int, double>> compute_multipliers;
};

/// Runs `algo_name` on synthetic candidate gradients of `profile`'s size
/// and returns the per-update costs. Residual collection is disabled (the
/// O(n) dense buffer would not fit for 133.5M-parameter profiles); this
/// matches the paper's per-update-time measurements, which isolate
/// communication.
PerUpdateResult MeasurePerUpdate(const std::string& algo_name,
                                 const ModelProfile& profile,
                                 const PerUpdateOptions& options);

/// Convenience: measure several methods under the same options.
std::vector<PerUpdateResult> MeasurePerUpdateAll(
    const std::vector<std::string>& algo_names, const ModelProfile& profile,
    const PerUpdateOptions& options);

/// One (d, placement) cell of a team-tuning grid search.
struct TeamTuneCandidate {
  int num_teams = 1;
  PlacementPolicy placement = PlacementPolicy::kContiguous;
  std::string algo_label;
  /// Simulated comm+compute seconds for one epoch on the tuned fabric.
  double epoch_seconds = 0.0;
};

struct TeamTuneResult {
  std::vector<TeamTuneCandidate> candidates;
  /// Index into `candidates` of the fastest cell.
  size_t best_index = 0;

  const TeamTuneCandidate& best() const { return candidates[best_index]; }
};

struct TeamTuneOptions {
  double k_ratio = 0.01;
  int iterations_per_epoch = 30;
  int measured_iterations = 2;
  /// Placement policies to grid over. On a single-locality-group fabric
  /// (flat/star/ring) every policy yields the same simulated times, so
  /// the grid collapses to kContiguous there; d = 1 rows likewise carry
  /// only one placement cell.
  std::vector<PlacementPolicy> policies = AllPlacementPolicies();
};

/// The paper's §III-D/§IV-G team-count selection, generalised to a
/// (d, placement) grid over the *given* fabric: one simulated epoch of
/// `spardl` per divisor d of `fabric.num_workers` per placement policy.
/// This is the engine behind `examples/tune_teams` — and the regression
/// surface for the historical bug where the tuner ignored the requested
/// topology and always tuned d on the flat closed-form fabric.
TeamTuneResult TuneTeamPlacement(const ModelProfile& profile,
                                 const TopologySpec& fabric,
                                 const TeamTuneOptions& options);

}  // namespace bench
}  // namespace spardl

#endif  // SPARDL_BENCH_BENCH_UTIL_H_
