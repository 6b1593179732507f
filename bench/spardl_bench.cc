// spardl-bench: the paper's figure and table reproductions and the
// extensions beyond the paper, as scenarios of one executable.
//
//   $ ./build/bench/spardl-bench                      # list the scenarios
//   $ ./build/bench/spardl-bench <scenario> [flags]
//
// Each scenario reads a fixed subset of the harness flags, shown in the
// list; any other flag (or a positional argument) is a usage error that
// exits 2.

#include <cstdio>
#include <cstring>

#include "scenarios.h"

namespace spardl {
namespace bench {
namespace {

struct Scenario {
  const char* name;
  /// The `HarnessFlag`s the scenario reads.
  unsigned flags;
  int (*run)(const HarnessArgs&);
  const char* summary;
};

constexpr unsigned kW = kWorkersFlag;
constexpr unsigned kI = kIterationsFlag;
constexpr unsigned kT = kTopologyFlag;
constexpr unsigned kP = kPlacementFlag;
constexpr unsigned kC = kClusterFlags;
constexpr unsigned kAll = kW | kI | kT | kP | kC;

constexpr Scenario kScenarios[] = {
    {"table1_complexity", kW | kI | kC, RunTable1Complexity,
     "Table I: predicted vs measured latency and bandwidth per method"},
    {"fig1_sga", kW, RunFig1Sga,
     "Fig. 1: naive sparse summation grows toward dense; SparDL stays at k"},
    {"fig7_gradient_count", kW | kI | kC, RunFig7GradientCount,
     "Fig. 7: the B-SAG union size drifts slowly across batches"},
    {"fig8_per_update", kW | kI | kC, RunFig8PerUpdate,
     "Fig. 8: per-update time of four methods on the mid-size cases"},
    {"fig9_convergence", kW | kI | kT | kC, RunFig9Convergence,
     "Fig. 9: convergence vs simulated time on the mid-size cases"},
    {"fig10_large_models", kAll, RunFig10LargeModels,
     "Fig. 10: per-update time on ResNet-50 and BERT, SparDL vs Ok-Topk"},
    {"fig11_convergence_large", kAll, RunFig11ConvergenceLarge,
     "Fig. 11: convergence on the large cases, SparDL vs Ok-Topk"},
    {"fig12_scalability", kW | kI | kC, RunFig12Scalability,
     "Fig. 12: speedup vs worker count, and convergence at 8 workers; "
     "large-P rows when --workers >= 256"},
    {"fig13_sag_convergence", kAll, RunFig13SagConvergence,
     "Fig. 13: convergence of SparDL with R-SAG and B-SAG teams"},
    {"fig14_team_impact", kAll, RunFig14TeamImpact,
     "Fig. 14: per-epoch time vs team count d"},
    {"fig15_epoch_stability", kW | kI | kT | kC, RunFig15EpochStability,
     "Fig. 15: per-epoch time stays stable across epochs for every d"},
    {"fig16_k_sweep", kAll, RunFig16KSweep,
     "Fig. 16: comm time and convergence vs k/n"},
    {"fig17_residuals", kAll, RunFig17Residuals,
     "Fig. 17: global vs partial vs local residual collection"},
    {"fig18_rdma", kW | kI | kC, RunFig18Rdma,
     "Fig. 18: per-update time on the RDMA cluster"},
    {"ablation_srs", kW | kI | kT | kC, RunAblationSrs,
     "lazy vs eager SRS sparsification, and why SparDL uses Bruck"},
    {"ext_heterogeneous", kW | kI | kC, RunExtHeterogeneous,
     "one straggler worker: a slow network path or slow compute"},
    {"ext_overlap", kAll, RunExtOverlap,
     "layer-bucketed comm/compute overlap under three sync modes"},
    {"ext_quantization", kAll, RunExtQuantization,
     "SparDL with 16/8/4-bit values on the wire"},
    {"ext_topology", kAll, RunExtTopology,
     "every method on flat, star, fat-tree, ring and torus fabrics"},
    {"tune_teams", kAll, RunTuneTeams,
     "pick the fastest (d, placement) for SparDL on a fabric"},
};

// One line per scenario: name, summary and the flags it reads. README's
// scenario table repeats these lines, and bench_scenarios_documented
// checks that the two agree.
void PrintScenarios(std::FILE* out) {
  for (const Scenario& scenario : kScenarios) {
    std::fprintf(out, "%-24s %s  (flags: %s)\n", scenario.name,
                 scenario.summary, FlagNames(scenario.flags).c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace spardl

int main(int argc, char** argv) {
  using namespace spardl::bench;  // NOLINT
  if (argc < 2) {
    PrintScenarios(stdout);
    return 0;
  }
  for (const Scenario& scenario : kScenarios) {
    if (std::strcmp(argv[1], scenario.name) == 0) {
      return scenario.run(ParseHarnessArgs(scenario.flags, argc - 1, argv + 1));
    }
  }
  std::fprintf(stderr,
               "spardl-bench: unknown scenario '%s'\n"
               "usage: spardl-bench <scenario> [flags]\n",
               argv[1]);
  PrintScenarios(stderr);
  return 2;
}
