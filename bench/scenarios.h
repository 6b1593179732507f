#ifndef SPARDL_BENCH_SCENARIOS_H_
#define SPARDL_BENCH_SCENARIOS_H_

#include "bench_util.h"

namespace spardl {
namespace bench {

// The `spardl-bench` scenarios, one per file of the same name. Each
// prints its tables to stdout and returns the process exit code; the
// registry in spardl_bench.cc names them and lists the flags they read.
int RunTable1Complexity(const HarnessArgs& args);
int RunFig1Sga(const HarnessArgs& args);
int RunFig7GradientCount(const HarnessArgs& args);
int RunFig8PerUpdate(const HarnessArgs& args);
int RunFig9Convergence(const HarnessArgs& args);
int RunFig10LargeModels(const HarnessArgs& args);
int RunFig11ConvergenceLarge(const HarnessArgs& args);
int RunFig12Scalability(const HarnessArgs& args);
int RunFig13SagConvergence(const HarnessArgs& args);
int RunFig14TeamImpact(const HarnessArgs& args);
int RunFig15EpochStability(const HarnessArgs& args);
int RunFig16KSweep(const HarnessArgs& args);
int RunFig17Residuals(const HarnessArgs& args);
int RunFig18Rdma(const HarnessArgs& args);
int RunAblationSrs(const HarnessArgs& args);
int RunExtHeterogeneous(const HarnessArgs& args);
int RunExtOverlap(const HarnessArgs& args);
int RunExtQuantization(const HarnessArgs& args);
int RunExtTopology(const HarnessArgs& args);
int RunTuneTeams(const HarnessArgs& args);

}  // namespace bench
}  // namespace spardl

#endif  // SPARDL_BENCH_SCENARIOS_H_
