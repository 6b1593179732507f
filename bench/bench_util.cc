#include "bench_util.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "metrics/table.h"
#include "obs/analysis.h"
#include "obs/exporters.h"

namespace spardl {
namespace bench {

namespace {

constexpr const char* kFlagHelp =
    "(supported flags: --workers N, --iterations N, --topology SPEC, "
    "--backend thread|fiber, "
    "--placement contiguous|rack|interleaved, "
    "--trace-out PATH, --metrics-out PATH, --metrics-csv PATH, "
    "--timeseries-out PATH, --protocol-check; env "
    "SPARDL_BENCH_WORKERS, SPARDL_BENCH_ITERATIONS, SPARDL_BENCH_TOPOLOGY, "
    "SPARDL_BENCH_BACKEND, SPARDL_BENCH_PLACEMENT, "
    "SPARDL_BENCH_TRACE_OUT, "
    "SPARDL_BENCH_METRICS_OUT, SPARDL_BENCH_METRICS_CSV, "
    "SPARDL_BENCH_TIMESERIES_OUT, SPARDL_BENCH_PROTOCOL_CHECK)";

/// Process-global observability sinks, installed by `ParseHarnessArgs`.
/// A plain static: bench mains are single-threaded at parse/observe time.
struct ObsConfig {
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  std::optional<std::string> metrics_csv;
  std::optional<std::string> timeseries_out;
  std::vector<RunMetrics> runs;

  bool enabled() const {
    return trace_out.has_value() || metrics_out.has_value() ||
           metrics_csv.has_value() || timeseries_out.has_value();
  }
};

ObsConfig& GlobalObs() {
  static ObsConfig config;
  return config;
}

/// Process-global `--protocol-check` switch, installed by
/// `ParseHarnessArgs` (same single-threaded contract as `ObsConfig`).
bool& GlobalProtocolCheck() {
  static bool enabled = false;
  return enabled;
}

/// Process-global `--backend` override, installed by `ParseHarnessArgs`
/// (nullopt = keep each cluster's process default).
std::optional<ExecBackend>& GlobalExecBackend() {
  static std::optional<ExecBackend> backend;
  return backend;
}

[[noreturn]] void DieWriteFailure(const std::string& path) {
  std::fprintf(stderr, "failed to write '%s': %s\n", path.c_str(),
               std::strerror(errno));
  std::exit(1);
}

[[noreturn]] void DieBadValue(const char* what, const char* text) {
  std::fprintf(stderr, "bad value '%s' for %s: want a positive integer %s\n",
               text, what, kFlagHelp);
  std::exit(2);
}

// The whole token must be a positive integer — trailing garbage
// ("4junk") and non-numbers abort with a usage message, not a CHECK.
int ParseIntOrDie(const char* what, const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 1 || value > 1'000'000) {
    DieBadValue(what, text);
  }
  return static_cast<int>(value);
}

// Parses "--<name>=V" or "--<name> V" at argv[i]; advances i past
// consumed tokens.
std::optional<int> MatchIntFlag(const char* name, int argc, char** argv,
                                int* i) {
  const char* arg = argv[*i];
  const std::string flag = std::string("--") + name;
  if (std::strncmp(arg, (flag + "=").c_str(), flag.size() + 1) == 0) {
    return ParseIntOrDie(flag.c_str(), arg + flag.size() + 1);
  }
  if (flag != arg) return std::nullopt;
  if (*i + 1 >= argc || std::strncmp(argv[*i + 1], "--", 2) == 0) {
    DieBadValue(flag.c_str(), "<missing>");
  }
  ++*i;
  return ParseIntOrDie(flag.c_str(), argv[*i]);
}

[[noreturn]] void DieMissingValue(const char* what) {
  std::fprintf(stderr, "missing value for %s %s\n", what, kFlagHelp);
  std::exit(2);
}

// Parses "--<name>=V" or "--<name> V" at argv[i] as a raw string;
// advances i past consumed tokens.
std::optional<std::string> MatchStringFlag(const char* name, int argc,
                                           char** argv, int* i) {
  const char* arg = argv[*i];
  const std::string flag = std::string("--") + name;
  if (std::strncmp(arg, (flag + "=").c_str(), flag.size() + 1) == 0) {
    return std::string(arg + flag.size() + 1);
  }
  if (flag != arg) return std::nullopt;
  if (*i + 1 >= argc || std::strncmp(argv[*i + 1], "--", 2) == 0) {
    DieMissingValue(flag.c_str());
  }
  ++*i;
  return std::string(argv[*i]);
}

PlacementPolicy ParsePlacementOrDie(const std::string& text) {
  auto parsed = ParsePlacementPolicy(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --placement: %s %s\n",
                 parsed.status().ToString().c_str(), kFlagHelp);
    std::exit(2);
  }
  return *parsed;
}

ExecBackend ParseBackendOrDie(const std::string& text) {
  if (text == "thread") return ExecBackend::kThread;
  if (text == "fiber") return ExecBackend::kFiber;
  std::fprintf(stderr,
               "bad value '%s' for --backend: want thread|fiber %s\n",
               text.c_str(), kFlagHelp);
  std::exit(2);
}

std::optional<int> EnvInt(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return ParseIntOrDie(name, value);
}

std::optional<std::string> EnvString(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

}  // namespace

HarnessArgs ParseHarnessArgs(int argc, char** argv) {
  HarnessArgs args;
  args.workers = EnvInt("SPARDL_BENCH_WORKERS");
  args.iterations = EnvInt("SPARDL_BENCH_ITERATIONS");
  args.topology = EnvString("SPARDL_BENCH_TOPOLOGY");
  if (auto backend = EnvString("SPARDL_BENCH_BACKEND")) {
    args.backend = ParseBackendOrDie(*backend);
  }
  if (auto placement = EnvString("SPARDL_BENCH_PLACEMENT")) {
    args.placement = ParsePlacementOrDie(*placement);
  }
  args.trace_out = EnvString("SPARDL_BENCH_TRACE_OUT");
  args.metrics_out = EnvString("SPARDL_BENCH_METRICS_OUT");
  args.metrics_csv = EnvString("SPARDL_BENCH_METRICS_CSV");
  args.timeseries_out = EnvString("SPARDL_BENCH_TIMESERIES_OUT");
  if (auto check = EnvString("SPARDL_BENCH_PROTOCOL_CHECK")) {
    args.protocol_check = (*check != "0");
  }
  for (int i = 1; i < argc; ++i) {
    if (auto workers = MatchIntFlag("workers", argc, argv, &i)) {
      args.workers = *workers;
    } else if (auto iters = MatchIntFlag("iterations", argc, argv, &i)) {
      args.iterations = *iters;
    } else if (auto topo = MatchStringFlag("topology", argc, argv, &i)) {
      args.topology = *topo;
    } else if (auto backend = MatchStringFlag("backend", argc, argv, &i)) {
      args.backend = ParseBackendOrDie(*backend);
    } else if (auto place = MatchStringFlag("placement", argc, argv, &i)) {
      args.placement = ParsePlacementOrDie(*place);
    } else if (auto trace = MatchStringFlag("trace-out", argc, argv, &i)) {
      args.trace_out = *trace;
    } else if (auto metrics = MatchStringFlag("metrics-out", argc, argv, &i)) {
      args.metrics_out = *metrics;
    } else if (auto csv = MatchStringFlag("metrics-csv", argc, argv, &i)) {
      args.metrics_csv = *csv;
    } else if (auto ts = MatchStringFlag("timeseries-out", argc, argv, &i)) {
      args.timeseries_out = *ts;
    } else if (std::strcmp(argv[i], "--protocol-check") == 0) {
      args.protocol_check = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag '%s' %s\n", argv[i], kFlagHelp);
      std::exit(2);
    }
  }
  ObsConfig& obs = GlobalObs();
  obs.trace_out = args.trace_out;
  obs.metrics_out = args.metrics_out;
  obs.metrics_csv = args.metrics_csv;
  obs.timeseries_out = args.timeseries_out;
  GlobalProtocolCheck() = args.protocol_check;
  GlobalExecBackend() = args.backend;
  return args;
}

bool ObservabilityEnabled() { return GlobalObs().enabled(); }

void MaybeEnableObservability(Cluster& cluster) {
  if (ObservabilityEnabled()) cluster.EnableTracing();
}

bool ProtocolCheckEnabled() { return GlobalProtocolCheck(); }

void MaybeEnableProtocolCheck(Cluster& cluster) {
  if (ProtocolCheckEnabled()) cluster.EnableProtocolCheck();
}

void ApplyExecBackend(Cluster& cluster) {
  if (GlobalExecBackend().has_value()) {
    cluster.set_exec_backend(*GlobalExecBackend());
  }
}

namespace {

/// Per-run numeric series for the CSV sink: one column per metric, one
/// row per observed run (run order matches the metrics JSON).
void WriteMetricsCsvOrDie(const std::string& path,
                          const std::vector<RunMetrics>& runs) {
  std::vector<std::string> names = {"makespan_seconds", "comm_seconds",
                                    "compute_seconds", "busiest_link_util"};
  for (size_t i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    if (phase == Phase::kLink || phase == Phase::kNumPhases) continue;
    names.push_back("phase_" + std::string(PhaseName(phase)) + "_seconds");
  }
  std::vector<std::vector<double>> columns(names.size());
  for (const RunMetrics& run : runs) {
    size_t c = 0;
    columns[c++].push_back(run.makespan_seconds);
    columns[c++].push_back(run.total.comm_seconds);
    columns[c++].push_back(run.total.compute_seconds);
    columns[c++].push_back(run.links.empty() ? 0.0
                                             : run.links[0].utilization);
    for (size_t i = 0; i < kNumPhases; ++i) {
      const Phase phase = static_cast<Phase>(i);
      if (phase == Phase::kLink || phase == Phase::kNumPhases) continue;
      columns[c++].push_back(run.total.phase_seconds[i]);
    }
  }
  if (!WriteCsv(path, names, columns)) DieWriteFailure(path);
}

// `SPARDL_STRAGGLER_FACTOR`: a worker is a straggler when its mean
// iteration wall time exceeds this multiple of the cross-worker median.
double StragglerFactorFromEnv() {
  const char* value = std::getenv("SPARDL_STRAGGLER_FACTOR");
  if (value == nullptr || *value == '\0') return kDefaultStragglerFactor;
  char* end = nullptr;
  const double factor = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(factor > 0.0)) {
    std::fprintf(stderr,
                 "bad value '%s' for SPARDL_STRAGGLER_FACTOR: want a "
                 "positive number\n",
                 value);
    std::exit(2);
  }
  return factor;
}

}  // namespace

void ObserveRun(Cluster& cluster, const std::string& label) {
  ObsConfig& obs = GlobalObs();
  if (!obs.enabled()) return;
  obs.runs.push_back(CollectRunMetrics(cluster, label));
  RunMetrics& run = obs.runs.back();
  const CriticalPathReport report = ExtractCriticalPath(cluster);
  const std::vector<WhatIfResult> what_ifs = EstimateWhatIfs(report, cluster);
  run.analysis_json = AnalysisJson(report, what_ifs);
  const TimeSeriesReport series =
      BuildTimeSeries(cluster, StragglerFactorFromEnv());
  if (obs.trace_out.has_value() &&
      !WriteTextFile(*obs.trace_out, ChromeTraceJson(cluster))) {
    DieWriteFailure(*obs.trace_out);
  }
  if (obs.metrics_out.has_value() &&
      !WriteTextFile(*obs.metrics_out, RunMetricsJson(obs.runs))) {
    DieWriteFailure(*obs.metrics_out);
  }
  if (obs.metrics_csv.has_value()) {
    WriteMetricsCsvOrDie(*obs.metrics_csv, obs.runs);
  }
  if (obs.timeseries_out.has_value() &&
      !WriteTextFile(*obs.timeseries_out, TimeSeriesJson(series, label))) {
    DieWriteFailure(*obs.timeseries_out);
  }
  std::printf("[obs] run %zu '%s' on %s (%s): makespan %.6fs\n",
              obs.runs.size(), label.c_str(), run.topology.c_str(),
              run.engine.c_str(), run.makespan_seconds);
  if (!run.links.empty()) {
    std::printf("%s", LinkUtilizationTable(run, /*top_n=*/3).c_str());
  }
  std::printf("%s", CriticalPathTable(report).c_str());
  std::printf("%s", WhatIfTable(what_ifs).c_str());
  if (series.iterations > 0) {
    std::printf("%s", StragglerTable(series).c_str());
  }
}

std::vector<TopologySpec> DefaultFabricSweep(int num_workers,
                                             CostModel cost) {
  const int rack_size = (num_workers + 1) / 2;  // two racks
  std::vector<TopologySpec> fabrics = {
      TopologySpec::Flat(num_workers, cost),
      TopologySpec::Star(num_workers, cost),
      TopologySpec::FatTree(num_workers, rack_size, 4.0, cost),
      TopologySpec::FatTree(num_workers, rack_size, 4.0, cost,
                            /*num_cores=*/2),
      TopologySpec::Ring(num_workers, cost)};
  if (num_workers % 2 == 0 && num_workers >= 4) {
    fabrics.push_back(TopologySpec::Torus(num_workers / 2, 2, cost));
  }
  return fabrics;
}

TopologySpec ResolveFabric(const std::optional<TopologySpec>& topology,
                           int num_workers, CostModel cost_model) {
  TopologySpec spec =
      topology.value_or(TopologySpec::Flat(num_workers, cost_model));
  if (spec.num_workers == 0) spec.num_workers = num_workers;
  SPARDL_CHECK_EQ(spec.num_workers, num_workers)
      << "topology spec and options disagree on the worker count";
  return spec;
}

std::optional<TopologySpec> HarnessArgs::TopologyOr(
    std::optional<TopologySpec> fallback, int num_workers,
    CostModel cost) const {
  if (!topology.has_value()) return fallback;
  auto parsed = TopologySpec::Parse(*topology, num_workers, cost);
  // Build-validate too (grid/worker-count agreement, parameter ranges),
  // so a parseable-but-invalid spec is a clean usage error instead of a
  // CHECK abort mid-run.
  if (parsed.ok()) {
    if (auto built = (*parsed).Build(); !built.ok()) {
      parsed = built.status();
    }
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --topology: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return *parsed;
}

PerUpdateResult MeasurePerUpdate(const std::string& algo_name,
                                 const ModelProfile& profile,
                                 const PerUpdateOptions& options) {
  const size_t n = profile.num_params;
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(options.k_ratio * static_cast<double>(n)));
  const size_t candidates_per_worker = std::max<size_t>(
      k, static_cast<size_t>(options.candidate_factor *
                             static_cast<double>(k)));

  const TopologySpec fabric = ResolveFabric(
      options.topology, options.num_workers, options.cost_model);

  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = options.num_workers;
  config.num_teams = options.num_teams;
  config.residual_mode = ResidualMode::kNone;
  // The team layout is planned against the *resolved* fabric, so a
  // --topology override changes where teams land, not just link costs.
  auto placement = PlanPlacement(fabric, options.num_workers,
                                 options.num_teams, options.placement);
  SPARDL_CHECK(placement.ok()) << placement.status().ToString();
  config.placement = std::move(*placement);

  Cluster cluster(fabric);
  ApplyExecBackend(cluster);
  MaybeEnableObservability(cluster);
  MaybeEnableProtocolCheck(cluster);
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(options.num_workers));
  for (int r = 0; r < options.num_workers; ++r) {
    auto created = CreateAlgorithm(algo_name, config);
    SPARDL_CHECK(created.ok()) << created.status().ToString();
    algos[static_cast<size_t>(r)] = std::move(*created);
  }

  ProfileGradientGenerator generator(n, options.seed);
  for (const auto& [worker, factor] : options.compute_multipliers) {
    generator.SetComputeMultiplier(worker, factor);
  }
  PerUpdateResult result;
  result.algo_label = std::string(algos[0]->name());
  result.compute_seconds = profile.compute_seconds;

  const int total_iterations =
      options.warmup_iterations + options.measured_iterations;
  for (int iter = 0; iter < total_iterations; ++iter) {
    if (iter == options.warmup_iterations) cluster.ResetClocksAndStats();
    SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
      // Heterogeneous-compute mode charges each worker's (scaled)
      // forward+backward time to its clock, so compute-slow workers
      // arrive at the exchange late and show up as stragglers. Gated on
      // the skew being configured: homogeneous runs keep the legacy
      // communication-only measurement byte-for-byte.
      if (generator.has_compute_skew()) {
        comm.Compute(generator.ComputeSeconds(comm.rank(),
                                              profile.compute_seconds));
      }
      const SparseVector candidates = generator.Generate(
          comm.rank(), iter, candidates_per_worker);
      algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm,
                                                           candidates);
      // Mark before the barrier so the per-iteration series keeps the
      // cross-worker skew the barrier is about to erase.
      comm.MarkIteration();
      comm.BarrierSyncClocks();
    }));
  }
  double comm_seconds = 0.0;
  uint64_t words = 0;
  uint64_t messages = 0;
  for (int r = 0; r < options.num_workers; ++r) {
    comm_seconds =
        std::max(comm_seconds, cluster.comm(r).stats().comm_seconds);
    words = std::max(words, cluster.comm(r).stats().words_received);
    messages = std::max(messages, cluster.comm(r).stats().messages_received);
  }
  const double iters = options.measured_iterations;
  result.comm_seconds = comm_seconds / iters;
  result.words_per_update = static_cast<double>(words) / iters;
  result.messages_per_update = static_cast<double>(messages) / iters;
  ObserveRun(cluster, result.algo_label);
  return result;
}

std::vector<PerUpdateResult> MeasurePerUpdateAll(
    const std::vector<std::string>& algo_names, const ModelProfile& profile,
    const PerUpdateOptions& options) {
  std::vector<PerUpdateResult> results;
  results.reserve(algo_names.size());
  for (const std::string& name : algo_names) {
    results.push_back(MeasurePerUpdate(name, profile, options));
  }
  return results;
}

TeamTuneResult TuneTeamPlacement(const ModelProfile& profile,
                                 const TopologySpec& fabric,
                                 const TeamTuneOptions& options) {
  const int p = fabric.num_workers;
  SPARDL_CHECK_GE(p, 2) << "tuning needs at least two workers";
  // One locality group means every layout shares the same link costs —
  // grid only over d there (the historical flat behaviour).
  const bool layout_matters = LocalityGroups(fabric, p).size() > 1;
  TeamTuneResult result;
  for (int d = 1; d <= p; ++d) {
    if (p % d != 0) continue;  // d must divide P
    std::vector<PlacementPolicy> policies = options.policies;
    if (d == 1 || !layout_matters) {
      policies = {PlacementPolicy::kContiguous};
    }
    for (PlacementPolicy policy : policies) {
      PerUpdateOptions per_update;
      per_update.num_workers = p;
      per_update.k_ratio = options.k_ratio;
      per_update.num_teams = d;
      per_update.placement = policy;
      per_update.topology = fabric;
      per_update.cost_model = fabric.cost;
      per_update.measured_iterations = options.measured_iterations;
      const PerUpdateResult r =
          MeasurePerUpdate("spardl", profile, per_update);
      TeamTuneCandidate candidate;
      candidate.num_teams = d;
      candidate.placement = policy;
      candidate.algo_label = r.algo_label;
      candidate.epoch_seconds = (r.comm_seconds + r.compute_seconds) *
                                options.iterations_per_epoch;
      if (!result.candidates.empty() &&
          candidate.epoch_seconds <
              result.candidates[result.best_index].epoch_seconds) {
        result.best_index = result.candidates.size();
      }
      result.candidates.push_back(std::move(candidate));
    }
  }
  return result;
}

}  // namespace bench
}  // namespace spardl
