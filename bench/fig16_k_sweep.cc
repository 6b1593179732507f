// Reproduces Fig. 16: the impact of the sparsification budget k/n on
// training time and convergence (VGG-16- and VGG-19-like cases, 14
// workers). Two parts:
//  (1) per-update communication time of the *paper-scale* profiles for
//      k/n in {1e-1 .. 1e-5} — shows time flattening once the latency
//      term dominates (the paper's explanation for why 1e-4/1e-5 barely
//      help);
//  (2) real training at k/n in {1e-1, 1e-2, 1e-3} — accuracy degrades
//      gently at 1e-2 and visibly at 1e-3.

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"
#include "train_util.h"

int spardl::bench::RunFig16KSweep(const HarnessArgs& args) {
  const int p = args.workers_or(14);
  const std::vector<double> ratios = {1e-1, 1e-2, 1e-3, 1e-4, 1e-5};

  std::printf(
      "== Fig. 16 part 1: per-update comm time vs k/n (paper-scale "
      "profiles, SparDL, P=%d) ==\n\n",
      p);
  for (const std::string& model :
       {std::string("VGG-16"), std::string("VGG-19")}) {
    const ModelProfile& profile = ProfileByModel(model);
    TablePrinter table({"k/n", "comm (s)", "vs previous"});
    double previous = -1.0;
    for (double ratio : ratios) {
      bench::PerUpdateOptions options;
      options.num_workers = p;
      options.k_ratio = ratio;
      options.measured_iterations = args.iterations_or(1);
      options.topology = args.TopologyOr(std::nullopt, p);
      options.placement = args.placement_or(PlacementPolicy::kContiguous);
      const bench::PerUpdateResult r =
          bench::MeasurePerUpdate("spardl", profile, options);
      table.AddRow({StrFormat("%.0e", ratio),
                    StrFormat("%.5f", r.comm_seconds),
                    previous < 0
                        ? "-"
                        : StrFormat("%.2fx", r.comm_seconds / previous)});
      previous = r.comm_seconds;
    }
    std::printf("%s (n=%zu)\n%s\n", profile.model.c_str(),
                profile.num_params, table.ToString().c_str());
  }
  std::printf(
      "Paper shape: large drop from 1e-1 to 1e-2, smaller to 1e-3, nearly "
      "flat below (latency floor).\n\n");

  std::printf(
      "== Fig. 16 part 2: convergence vs k/n (real training, P=%d) ==\n\n",
      p);
  for (const std::string& case_key :
       {std::string("vgg16"), std::string("vgg19")}) {
    const TrainingCaseSpec spec = MakeTrainingCase(case_key);
    std::vector<bench::ConvergenceSeries> series;
    for (double ratio : {1e-1, 1e-2, 1e-3}) {
      bench::TrainRunOptions options;
      options.num_workers = p;
      options.k_ratio = ratio;
      options.epochs = 6;
      options.iterations_per_epoch = args.iterations_or(10);
      options.topology = args.TopologyOr(std::nullopt, p);
      options.placement = args.placement_or(PlacementPolicy::kContiguous);
      series.push_back(bench::RunTrainingCase(
          spec, "spardl", StrFormat("k/n=%.0e", ratio), options));
    }
    bench::PrintConvergence("-- " + spec.name + " --", series);
  }
  std::printf(
      "Paper conclusion: k/n = 1e-2 or 1e-3 is the sweet spot — low "
      "communication time while maintaining the convergence rate.\n");
  return 0;
}
