// Reproduces Fig. 16: the impact of the sparsification budget k/n on
// training time and convergence (VGG-16- and VGG-19-like cases, 14
// workers). Two parts:
//  (1) per-update communication time of the *paper-scale* profiles for
//      k/n in {1e-1 .. 1e-5} — shows time flattening once the latency
//      term dominates (the paper's explanation for why 1e-4/1e-5 barely
//      help);
//  (2) real training at k/n in {1e-1, 1e-2, 1e-3} — accuracy degrades
//      gently at 1e-2 and visibly at 1e-3.

#include <cstddef>
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
  const std::vector<std::string> models = {"VGG-16", "VGG-19"};
  bench::PerUpdateOptions options;
  options.num_workers = p;
  options.measured_iterations = args.iterations_or(1);
  options.topology = args.TopologyOr(std::nullopt, p);
  options.placement = args.placement_or(PlacementPolicy::kContiguous);
  bench::Sweep<bench::PerUpdateResult> sweep;
  for (const std::string& model : models) {
    for (double ratio : ratios) {
      options.k_ratio = ratio;
      bench::AddPerUpdate(sweep, "spardl", ProfileByModel(model), options);
    }
  }
  const std::vector<bench::PerUpdateResult> results = sweep.Run();
  for (size_t m = 0; m < models.size(); ++m) {
    const ModelProfile& profile = ProfileByModel(models[m]);
    TablePrinter table({"k/n", "comm (s)", "vs previous"});
    double previous = -1.0;
    for (size_t i = 0; i < ratios.size(); ++i) {
      const bench::PerUpdateResult& r = results[m * ratios.size() + i];
      table.AddRow({StrFormat("%.0e", ratios[i]),
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
  const std::vector<double> train_ratios = {1e-1, 1e-2, 1e-3};
  const std::vector<TrainingCaseSpec> specs = {MakeTrainingCase("vgg16"),
                                               MakeTrainingCase("vgg19")};
  bench::Sweep<bench::ConvergenceSeries> training;
  for (const TrainingCaseSpec& spec : specs) {
    for (double ratio : train_ratios) {
      bench::TrainRunOptions train_options;
      train_options.num_workers = p;
      train_options.k_ratio = ratio;
      train_options.epochs = 6;
      train_options.iterations_per_epoch = args.iterations_or(10);
      train_options.topology = options.topology;
      train_options.placement = options.placement;
      bench::AddTrainingCase(training, spec, "spardl",
                             StrFormat("k/n=%.0e", ratio), train_options);
    }
  }
  const std::vector<bench::ConvergenceSeries> series = training.Run();
  for (size_t c = 0; c < specs.size(); ++c) {
    const auto first =
        series.begin() + static_cast<std::ptrdiff_t>(c * train_ratios.size());
    bench::PrintConvergence(
        "-- " + specs[c].name + " --",
        {first, first + static_cast<std::ptrdiff_t>(train_ratios.size())});
  }
  std::printf(
      "Paper conclusion: k/n = 1e-2 or 1e-3 is the sweet spot — low "
      "communication time while maintaining the convergence rate.\n");
  return 0;
}
