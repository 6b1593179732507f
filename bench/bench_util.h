#ifndef SPARDL_BENCH_BENCH_UTIL_H_
#define SPARDL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "dl/grad_profile.h"
#include "simnet/cluster.h"
#include "topo/placement.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace bench {

/// The harness flags a scenario can read. Each `spardl-bench` scenario
/// declares the set it reads, and the driver rejects every other flag on
/// its command line with a usage error (exit 2).
enum HarnessFlag : unsigned {
  /// --workers N: cluster size override (env `SPARDL_BENCH_WORKERS`).
  kWorkersFlag = 1u << 0,
  /// --iterations N: measured iterations override (env
  /// `SPARDL_BENCH_ITERATIONS`).
  kIterationsFlag = 1u << 1,
  /// --topology SPEC: fabric override ("fattree:4x8x2", ...).
  kTopologyFlag = 1u << 2,
  /// --placement contiguous|rack|interleaved: team layout.
  kPlacementFlag = 1u << 3,
  /// The five cluster flags: the four artifact sinks (--trace-out,
  /// --metrics-out, --metrics-csv, --timeseries-out) and
  /// --protocol-check. `ConfigureCluster` applies them, so every scenario
  /// that builds a cluster reads them.
  kClusterFlags = 1u << 4,
};

/// A scenario's parsed command line. The two env fallbacks fill
/// `workers` / `iterations` when the scenario reads them and the flag is
/// absent (flag > env > the scenario's built-in value), so CI can run the
/// expensive scenarios at smoke-tier sizes without editing code.
struct HarnessArgs {
  std::optional<int> workers;
  std::optional<int> iterations;
  /// A `TopologySpec::Parse` string.
  std::optional<std::string> topology;
  std::optional<PlacementPolicy> placement;
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  std::optional<std::string> metrics_csv;
  std::optional<std::string> timeseries_out;
  /// Run every cluster with the SPMD protocol verifier attached; a
  /// diagnosed divergence aborts the scenario with the verifier's report.
  bool protocol_check = false;

  int workers_or(int fallback) const { return workers.value_or(fallback); }
  int iterations_or(int fallback) const {
    return iterations.value_or(fallback);
  }
  PlacementPolicy placement_or(PlacementPolicy fallback) const {
    return placement.value_or(fallback);
  }
  /// True when any artifact sink was given.
  bool observing() const {
    return trace_out.has_value() || metrics_out.has_value() ||
           metrics_csv.has_value() || timeseries_out.has_value();
  }

  /// The fabric this run should use: `--topology` (parsed with `workers`
  /// and `cost`) when given, else `fallback` (nullopt = the scenario's
  /// default, usually flat). Parse and build errors are usage errors.
  std::optional<TopologySpec> TopologyOr(
      std::optional<TopologySpec> fallback, int num_workers,
      CostModel cost = CostModel::Ethernet()) const;
};

/// Parses scenario `argv[0]`'s command line against `flags` (a
/// `HarnessFlag` mask) and installs the result process-wide for
/// `ConfigureCluster` and `ObserveRun`. A positional argument, an unknown
/// flag, a flag outside `flags` or a bad value is a usage error.
HarnessArgs ParseHarnessArgs(unsigned flags, int argc, char** argv);

/// Prints `message` and the scenario's usage line to stderr and exits 2.
[[noreturn]] void UsageError(const std::string& message);

/// `flags` (a `HarnessFlag` mask) as the scenario list shows it, e.g.
/// "workers, iterations, cluster" ("cluster": the five cluster flags).
std::string FlagNames(unsigned flags);

/// Applies the cluster flags to a freshly built `cluster`: span recording
/// when any artifact sink is set, and the protocol verifier under
/// --protocol-check. Call right after construction, and `ObserveRun`
/// after the measured run.
void ConfigureCluster(Cluster& cluster);

/// Records one finished measurement run against the configured sinks:
/// appends the run's `RunMetrics` (with its embedded critical-path
/// analysis) and rewrites the metrics JSON/CSV, and rewrites the Chrome
/// trace and time-series JSON with this cluster's data (multiple observed
/// runs: the *last* trace/time-series wins; the metrics files keep every
/// run). Prints the top-links, critical-path, what-if, and straggler
/// tables to stdout. The straggler threshold is
/// `SPARDL_STRAGGLER_FACTOR` (default 1.5). Exits non-zero with a message
/// on any write failure. No-op when no sink was given.
void ObserveRun(Cluster& cluster, const std::string& label);

/// The untyped engine behind `Sweep::Run`: calls `run(i)` once for every
/// i in [0, costs.size()) and returns when all calls have returned. With
/// an artifact sink set (or a single point, or one hardware thread) it
/// calls them in order on the calling thread. Otherwise it starts
/// min(hardware threads, points) carrier threads, which take the points
/// heaviest `costs[i]` first (ties in index order) and run each to
/// completion; an exception from a point is rethrown on the calling
/// thread after every carrier has joined.
void RunSweepPoints(const std::vector<double>& costs,
                    const std::function<void(size_t)>& run);

/// A scenario's independent simulations ("points"), run in parallel.
///
/// A point is one self-contained measurement — a `MeasurePerUpdate`, a
/// `RunTrainingCase`, a team-tuning cell — that builds, runs and drops
/// its own clusters. Each cluster runs its workers as fibers on whichever
/// carrier thread runs the point, so points share no simulator state and
/// their results are exactly what a serial run gives. `Run` returns them
/// in submission order, so a scenario prints its tables from the vector
/// as if it had measured serially.
///
/// Rules for a point: resolve every flag before submitting it (a usage
/// error must exit from the main thread, not a carrier); print nothing;
/// touch no state another point writes. `ObserveRun` is the one shared
/// writer, which is why any artifact sink makes the sweep serial: the
/// run list and the files then keep the order and bytes of a serial run.
///
/// ```
/// Sweep<std::vector<double>> sweep;
/// for (const auto& [label, d] : configurations) {
///   sweep.Add([fabric, d] { return EpochTimes(fabric, d); });
/// }
/// const std::vector<std::vector<double>> times = sweep.Run();
/// ```
template <typename Result>
class Sweep {
 public:
  /// Queues `point`. `cost` is its expected run time in any unit shared
  /// by the sweep's points: the heaviest start first, so a long point
  /// does not begin last and run alone at the end.
  void Add(std::function<Result()> point, double cost = 1.0) {
    points_.push_back({std::move(point), cost});
  }

  /// Runs every queued point (see `RunSweepPoints`) and returns the
  /// results in submission order; the queue is empty afterwards.
  std::vector<Result> Run() {
    std::vector<double> costs;
    for (const Point& point : points_) costs.push_back(point.cost);
    std::vector<std::optional<Result>> slots(points_.size());
    RunSweepPoints(costs,
                   [&](size_t i) { slots[i].emplace(points_[i].run()); });
    points_.clear();
    std::vector<Result> results;
    results.reserve(slots.size());
    for (std::optional<Result>& slot : slots) {
      results.push_back(std::move(*slot));
    }
    return results;
  }

 private:
  struct Point {
    std::function<Result()> run;
    double cost;
  };
  std::vector<Point> points_;
};

/// Table I's closed-form cost of one sparse All-Reduce: latency in units
/// of alpha, bandwidth in units of k*beta (received words / k).
struct TableICost {
  double latency = 0.0;
  double bandwidth_low = 0.0;
  /// Equals `bandwidth_low` when the bound is tight; negative when it
  /// depends on n (TopkDSA's (P-1)/P (2k + n)).
  double bandwidth_high = 0.0;
};

/// The Table I row of registry method `algo` at P = `p`. For "spardl"
/// with d > 1 teams, `sag` picks the R-SAG or B-SAG row (kAuto: R-SAG
/// when d is a power of two, the paper's rule).
TableICost PredictTableI(const std::string& algo, int p, int d,
                         SagMode sag);

/// The default fabric sweep shared by the `ext_topology` and
/// `topology_explorer` scenarios: flat, star, two-rack fat-tree
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
  int value_bits = 32;        // SparDL wire quantization
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

/// Queues `MeasurePerUpdate(algo, profile, options)` on `sweep`, costed
/// by the candidate entries its workers generate over all iterations.
/// `profile` must outlive the sweep's `Run`.
void AddPerUpdate(Sweep<PerUpdateResult>& sweep, const std::string& algo,
                  const ModelProfile& profile,
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
/// `spardl` per divisor d of `fabric.num_workers` per placement policy,
/// each cell a `Sweep` point.
/// This is the engine behind the `tune_teams` scenario — and the regression
/// surface for the historical bug where the tuner ignored the requested
/// topology and always tuned d on the flat closed-form fabric.
TeamTuneResult TuneTeamPlacement(const ModelProfile& profile,
                                 const TopologySpec& fabric,
                                 const TeamTuneOptions& options);

}  // namespace bench
}  // namespace spardl

#endif  // SPARDL_BENCH_BENCH_UTIL_H_
