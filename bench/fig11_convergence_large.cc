// Reproduces Fig. 11: convergence on the large cases (ResNet-50-like,
// BERT-like) vs training time, SparDL vs Ok-Topk, 14 workers. Paper shape:
// comparable convergence per epoch, SparDL ~1.7x faster to finish.

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "scenarios.h"
#include "train_util.h"

int spardl::bench::RunFig11ConvergenceLarge(const HarnessArgs& args) {
  const int p = args.workers_or(14);
  std::printf(
      "== Fig. 11: convergence on large cases, SparDL vs Ok-Topk ==\n\n");
  const std::vector<std::string> cases = {"resnet50", "bert"};
  std::vector<TrainingCaseSpec> specs;
  for (const std::string& case_key : cases) {
    specs.push_back(MakeTrainingCase(case_key));
  }
  bench::Sweep<bench::ConvergenceSeries> sweep;
  for (size_t c = 0; c < cases.size(); ++c) {
    bench::TrainRunOptions options;
    options.num_workers = p;
    options.k_ratio = cases[c] == "bert" ? 0.03 : 0.01;
    options.epochs = 5;
    options.iterations_per_epoch = args.iterations_or(10);
    options.topology = args.TopologyOr(std::nullopt, p);
    options.placement = args.placement_or(PlacementPolicy::kContiguous);
    for (const auto& [algo, label] :
         {std::pair<std::string, std::string>{"oktopk", "Ok-Topk"},
          {"spardl", "SparDL"}}) {
      bench::AddTrainingCase(sweep, specs[c], algo, label, options);
    }
  }
  const std::vector<bench::ConvergenceSeries> series = sweep.Run();
  for (size_t c = 0; c < cases.size(); ++c) {
    bench::PrintConvergence(
        "-- " + specs[c].name + " --",
        {series.begin() + static_cast<std::ptrdiff_t>(2 * c),
         series.begin() + static_cast<std::ptrdiff_t>(2 * c + 2)});
  }
  return 0;
}
