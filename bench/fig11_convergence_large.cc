// Reproduces Fig. 11: convergence on the large cases (ResNet-50-like,
// BERT-like) vs training time, SparDL vs Ok-Topk, 14 workers. Paper shape:
// comparable convergence per epoch, SparDL ~1.7x faster to finish.

#include <cstdio>
#include <string>
#include <vector>

#include "scenarios.h"
#include "train_util.h"

int spardl::bench::RunFig11ConvergenceLarge(const HarnessArgs& args) {
  const int p = args.workers_or(14);
  std::printf(
      "== Fig. 11: convergence on large cases, SparDL vs Ok-Topk ==\n\n");
  for (const std::string& case_key :
       {std::string("resnet50"), std::string("bert")}) {
    const TrainingCaseSpec spec = MakeTrainingCase(case_key);
    bench::TrainRunOptions options;
    options.num_workers = p;
    options.k_ratio = case_key == "bert" ? 0.03 : 0.01;
    options.epochs = 5;
    options.iterations_per_epoch = args.iterations_or(10);
    options.topology = args.TopologyOr(std::nullopt, p);
    options.placement = args.placement_or(PlacementPolicy::kContiguous);
    std::vector<bench::ConvergenceSeries> series;
    series.push_back(
        bench::RunTrainingCase(spec, "oktopk", "Ok-Topk", options));
    series.push_back(
        bench::RunTrainingCase(spec, "spardl", "SparDL", options));
    bench::PrintConvergence("-- " + spec.name + " --", series);
  }
  return 0;
}
