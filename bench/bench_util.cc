#include "bench_util.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <thread>

#include "common/logging.h"
#include "metrics/table.h"
#include "obs/analysis.h"
#include "obs/exporters.h"

namespace spardl {
namespace bench {

namespace {

/// The running scenario's harness state, installed by `ParseHarnessArgs`.
/// A plain static: `ParseHarnessArgs` runs on the main thread before any
/// point runs, `Sweep` carriers only read `args`, and `ObserveRun` (the
/// one writer) only runs in serial sweeps.
struct HarnessState {
  std::string scenario;
  unsigned flags = 0;
  HarnessArgs args;
  /// Every observed run so far (the metrics sinks keep them all).
  std::vector<RunMetrics> runs;
};

HarnessState& Global() {
  static HarnessState state;
  return state;
}

[[noreturn]] void DieWriteFailure(const std::string& path) {
  std::fprintf(stderr, "failed to write '%s': %s\n", path.c_str(),
               std::strerror(errno));
  std::exit(1);
}

// The whole token must be a positive integer — trailing garbage
// ("4junk") and non-numbers are usage errors, not a CHECK.
int ParseIntOrDie(const std::string& what, const std::string& text) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 1 ||
      value > 1'000'000) {
    UsageError("bad value '" + text + "' for " + what +
               ": want a positive integer");
  }
  return static_cast<int>(value);
}

/// One harness flag: its name, the value it takes (null: none), the
/// `HarnessFlag` bit that lets a scenario read it, and how it is stored.
struct FlagSpec {
  const char* name;
  const char* value;
  unsigned bit;
  void (*set)(const std::string& value, HarnessArgs* args);
};

constexpr FlagSpec kFlagSpecs[] = {
    {"workers", "N", kWorkersFlag,
     [](const std::string& v, HarnessArgs* a) {
       a->workers = ParseIntOrDie("--workers", v);
     }},
    {"iterations", "N", kIterationsFlag,
     [](const std::string& v, HarnessArgs* a) {
       a->iterations = ParseIntOrDie("--iterations", v);
     }},
    {"topology", "SPEC", kTopologyFlag,
     [](const std::string& v, HarnessArgs* a) { a->topology = v; }},
    {"placement", "contiguous|rack|interleaved", kPlacementFlag,
     [](const std::string& v, HarnessArgs* a) {
       auto parsed = ParsePlacementPolicy(v);
       if (!parsed.ok()) {
         UsageError("bad --placement: " + parsed.status().ToString());
       }
       a->placement = *parsed;
     }},
    {"trace-out", "PATH", kClusterFlags,
     [](const std::string& v, HarnessArgs* a) { a->trace_out = v; }},
    {"metrics-out", "PATH", kClusterFlags,
     [](const std::string& v, HarnessArgs* a) { a->metrics_out = v; }},
    {"metrics-csv", "PATH", kClusterFlags,
     [](const std::string& v, HarnessArgs* a) { a->metrics_csv = v; }},
    {"timeseries-out", "PATH", kClusterFlags,
     [](const std::string& v, HarnessArgs* a) { a->timeseries_out = v; }},
    {"protocol-check", nullptr, kClusterFlags,
     [](const std::string&, HarnessArgs* a) { a->protocol_check = true; }},
};

}  // namespace

void UsageError(const std::string& message) {
  const HarnessState& state = Global();
  std::string usage = "usage: spardl-bench " + state.scenario;
  for (const FlagSpec& spec : kFlagSpecs) {
    if ((state.flags & spec.bit) == 0) continue;
    usage += std::string(" [--") + spec.name;
    if (spec.value != nullptr) usage += std::string(" ") + spec.value;
    usage += "]";
  }
  std::fprintf(stderr, "spardl-bench %s: %s\n%s\n", state.scenario.c_str(),
               message.c_str(), usage.c_str());
  std::exit(2);
}

std::string FlagNames(unsigned flags) {
  std::string names;
  unsigned named = 0;
  for (const FlagSpec& spec : kFlagSpecs) {
    if ((flags & spec.bit) == 0 || (named & spec.bit) != 0) continue;
    named |= spec.bit;
    if (!names.empty()) names += ", ";
    names += spec.bit == kClusterFlags ? "cluster" : spec.name;
  }
  return names.empty() ? "none" : names;
}

HarnessArgs ParseHarnessArgs(unsigned flags, int argc, char** argv) {
  HarnessState& state = Global();
  state.scenario = argv[0];
  state.flags = flags;
  HarnessArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      UsageError("unexpected argument '" + arg + "'");
    }
    // "--name=value" or "--name value".
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq - 2);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : kFlagSpecs) {
      if (name == candidate.name) spec = &candidate;
    }
    if (spec == nullptr) UsageError("unknown flag '" + arg + "'");
    if ((flags & spec->bit) == 0) {
      UsageError("this scenario does not read --" + name);
    }
    std::string value;
    if (spec->value == nullptr) {
      if (eq != std::string::npos) {
        UsageError("--" + name + " takes no value");
      }
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    } else {
      UsageError("missing value for --" + name);
    }
    spec->set(value, &args);
  }
  state.args = args;
  return args;
}

void ConfigureCluster(Cluster& cluster) {
  const HarnessArgs& args = Global().args;
  if (args.observing()) cluster.EnableTracing();
  if (args.protocol_check) cluster.EnableProtocolCheck();
}

namespace {

// CPUs this process may run on. Counted from its affinity mask, so a run
// under `taskset -c 0` gets one carrier; hardware_concurrency() counts the
// host's CPUs whatever the mask.
size_t UsableCpus() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<size_t>(std::max(1, CPU_COUNT(&mask)));
}

}  // namespace

void RunSweepPoints(const std::vector<double>& costs,
                    const std::function<void(size_t)>& run) {
  const size_t points = costs.size();
  const size_t carriers = std::min(points, UsableCpus());
  if (Global().args.observing() || carriers <= 1) {
    for (size_t i = 0; i < points; ++i) run(i);
    return;
  }
  std::vector<size_t> order(points);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&costs](size_t a, size_t b) {
    return costs[a] > costs[b];
  });
  std::atomic<size_t> next{0};
  // A point that throws stops its carrier; the first exception is
  // rethrown here once every carrier has joined.
  std::vector<std::exception_ptr> errors(carriers);
  std::vector<std::thread> threads;
  threads.reserve(carriers);
  for (size_t c = 0; c < carriers; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (size_t i = next++; i < points; i = next++) run(order[i]);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
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

}  // namespace

void ObserveRun(Cluster& cluster, const std::string& label) {
  HarnessState& state = Global();
  const HarnessArgs& args = state.args;
  if (!args.observing()) return;
  state.runs.push_back(CollectRunMetrics(cluster, label));
  RunMetrics& run = state.runs.back();
  const CriticalPathReport report = ExtractCriticalPath(cluster);
  const std::vector<WhatIfResult> what_ifs = EstimateWhatIfs(report, cluster);
  run.analysis_json = AnalysisJson(report, what_ifs);
  const TimeSeriesReport series =
      BuildTimeSeries(cluster, kDefaultStragglerFactor);
  if (args.trace_out.has_value() &&
      !WriteTextFile(*args.trace_out, ChromeTraceJson(cluster))) {
    DieWriteFailure(*args.trace_out);
  }
  if (args.metrics_out.has_value() &&
      !WriteTextFile(*args.metrics_out, RunMetricsJson(state.runs))) {
    DieWriteFailure(*args.metrics_out);
  }
  if (args.metrics_csv.has_value()) {
    WriteMetricsCsvOrDie(*args.metrics_csv, state.runs);
  }
  if (args.timeseries_out.has_value() &&
      !WriteTextFile(*args.timeseries_out, TimeSeriesJson(series, label))) {
    DieWriteFailure(*args.timeseries_out);
  }
  std::printf("[obs] run %zu '%s' on %s (%s): makespan %.6fs\n",
              state.runs.size(), label.c_str(), run.topology.c_str(),
              run.engine.c_str(), run.makespan_seconds);
  std::printf("phases (seconds summed over %d workers):\n%s", run.workers,
              TopPhasesTable(run).c_str());
  if (!run.links.empty()) {
    std::printf("%s", LinkUtilizationTable(run, /*top_n=*/3).c_str());
  }
  std::printf("%s", CriticalPathTable(report).c_str());
  std::printf("%s", WhatIfTable(what_ifs).c_str());
  if (series.iterations > 0) {
    std::printf("%s", StragglerTable(series).c_str());
  }
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

namespace {

// MeasurePerUpdate's fixed workload: candidate entries per worker as a
// multiple of k, unmeasured warm-up iterations, and the generator seed.
constexpr double kCandidateFactor = 1.5;
constexpr int kWarmupIterations = 1;
constexpr uint64_t kGeneratorSeed = 2024;

}  // namespace

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
    UsageError("bad --topology: " + parsed.status().ToString());
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
      k, static_cast<size_t>(kCandidateFactor * static_cast<double>(k)));

  const TopologySpec fabric = ResolveFabric(
      options.topology, options.num_workers, options.cost_model);

  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = options.num_workers;
  config.num_teams = options.num_teams;
  config.value_bits = options.value_bits;
  config.placement = options.placement;
  config.residual_mode = ResidualMode::kNone;

  Cluster cluster(fabric);
  ConfigureCluster(cluster);
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(options.num_workers));
  for (int r = 0; r < options.num_workers; ++r) {
    auto created = CreateAlgorithm(algo_name, config);
    SPARDL_CHECK(created.ok()) << created.status().ToString();
    algos[static_cast<size_t>(r)] = std::move(*created);
  }

  const ProfileGradientGenerator generator(n, kGeneratorSeed);
  PerUpdateResult result;
  result.algo_label = std::string(algos[0]->name());
  result.compute_seconds = profile.compute_seconds;

  const int total_iterations = kWarmupIterations + options.measured_iterations;
  for (int iter = 0; iter < total_iterations; ++iter) {
    if (iter == kWarmupIterations) cluster.ResetClocksAndStats();
    SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
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

void AddPerUpdate(Sweep<PerUpdateResult>& sweep, const std::string& algo,
                  const ModelProfile& profile,
                  const PerUpdateOptions& options) {
  const double candidates =
      static_cast<double>(profile.num_params) * options.k_ratio *
      options.num_workers *
      (kWarmupIterations + options.measured_iterations);
  sweep.Add(
      [algo, &profile, options] {
        return MeasurePerUpdate(algo, profile, options);
      },
      candidates);
}

TeamTuneResult TuneTeamPlacement(const ModelProfile& profile,
                                 const TopologySpec& fabric,
                                 const TeamTuneOptions& options) {
  const int p = fabric.num_workers;
  SPARDL_CHECK_GE(p, 2) << "tuning needs at least two workers";
  // One locality group means every layout shares the same link costs —
  // grid only over d there (the historical flat behaviour).
  const bool layout_matters = LocalityGroups(fabric, p).size() > 1;
  Sweep<TeamTuneCandidate> sweep;
  for (int d = 1; d <= p; ++d) {
    if (p % d != 0) continue;  // d must divide P
    std::vector<PlacementPolicy> policies = options.policies;
    if (d == 1 || !layout_matters) {
      policies = {PlacementPolicy::kContiguous};
    }
    for (PlacementPolicy policy : policies) {
      PerUpdateOptions per_update;
      per_update.num_workers = p;
      per_update.num_teams = d;
      per_update.placement = policy;
      per_update.topology = fabric;
      per_update.cost_model = fabric.cost;
      per_update.measured_iterations = options.measured_iterations;
      sweep.Add([&profile, per_update] {
        const PerUpdateResult r =
            MeasurePerUpdate("spardl", profile, per_update);
        TeamTuneCandidate candidate;
        candidate.num_teams = per_update.num_teams;
        candidate.placement = per_update.placement;
        candidate.algo_label = r.algo_label;
        candidate.epoch_seconds = (r.comm_seconds + r.compute_seconds) *
                                  kTuneIterationsPerEpoch;
        return candidate;
      });
    }
  }
  TeamTuneResult result;
  result.candidates = sweep.Run();
  for (size_t i = 1; i < result.candidates.size(); ++i) {
    if (result.candidates[i].epoch_seconds <
        result.candidates[result.best_index].epoch_seconds) {
      result.best_index = i;
    }
  }
  return result;
}

}  // namespace bench
}  // namespace spardl
