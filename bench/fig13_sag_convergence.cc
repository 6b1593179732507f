// Reproduces Fig. 13: SparDL with the two Spar-All-Gather variants on the
// VGG-16 case, 14 workers. (a) R-SAG with d = 1, 2; (b) B-SAG with
// d = 1, 2, 7, 14. Paper shape: R-SAG(d=2) slightly faster than d=1;
// B-SAG d=7 the fastest (~1.25x), d=14 a bit slower than d=7 and with the
// lowest final accuracy (aggregation after one local top-h only).

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "scenarios.h"
#include "train_util.h"

int spardl::bench::RunFig13SagConvergence(const HarnessArgs& args) {
  const int p = args.workers_or(14);
  TrainingCaseSpec spec = MakeTrainingCase("vgg16");
  // Harder task variant so the d=P quality loss is visible within the
  // short run (see fig17_residuals.cc for the same reasoning).
  spec.dataset_factory = [] {
    return MakeSyntheticClassification(96, 10, 3.0f, 101);
  };

  bench::Sweep<bench::ConvergenceSeries> sweep;
  auto add = [&](int d, SagMode mode, const std::string& label) {
    bench::TrainRunOptions options;
    options.num_workers = p;
    options.k_ratio = 0.004;
    options.epochs = 8;
    options.iterations_per_epoch = args.iterations_or(10);
    options.num_teams = d;
    options.topology = args.TopologyOr(std::nullopt, p);
    options.placement = args.placement_or(PlacementPolicy::kContiguous);
    if (d > 1) options.sag_mode = mode;
    bench::AddTrainingCase(sweep, spec, "spardl", label, options);
  };
  // Team counts must divide P; a --workers override drops the panels
  // whose paper d does not divide the requested size.
  const auto divides = [&](int d) { return p % d == 0; };

  // (a) R-SAG: d = 1, 2.
  add(1, SagMode::kAuto, "d=1");
  if (divides(2)) add(2, SagMode::kRecursive, "d=2 (R-SAG)");
  const size_t rsag_runs = divides(2) ? 2 : 1;
  // (b) B-SAG: d = 1, 2, 7, P.
  add(1, SagMode::kAuto, "d=1");
  for (int d : {2, 7}) {
    if (d < p && divides(d)) {
      add(d, SagMode::kBruck, StrFormat("d=%d (B-SAG)", d));
    }
  }
  add(p, SagMode::kBruck, StrFormat("d=%d (B-SAG)", p));
  const std::vector<bench::ConvergenceSeries> series = sweep.Run();
  const auto split = series.begin() + static_cast<std::ptrdiff_t>(rsag_runs);

  std::printf("== Fig. 13(a): SparDL with R-SAG (VGG-16, P=%d) ==\n\n", p);
  bench::PrintConvergence("-- R-SAG --", {series.begin(), split});
  std::printf("== Fig. 13(b): SparDL with B-SAG (VGG-16, P=%d) ==\n\n", p);
  bench::PrintConvergence("-- B-SAG --", {split, series.end()});
  return 0;
}
