// Reproduces Fig. 9: test accuracy (or loss) vs training time on the four
// mid-size cases with 14 workers, comparing SparDL against TopkA, TopkDSA
// and Ok-Topk.
//
// Shape to match: all methods converge to comparable accuracy after the
// same number of epochs (residual feedback works everywhere), but SparDL
// finishes first on the simulated clock — paper speedups 4.9/4.0/1.4x
// (VGG-19), 3.9/3.3/1.7x (VGG-11), 2.6/3.6/1.7x (LSTM-IMDB),
// 4.6/4.3/2.2x (LSTM-PTB) over TopkA/TopkDSA/Ok-Topk.
//
//   $ ./build/bench/spardl-bench fig9_convergence [--workers N]
//         [--iterations N] [--topology SPEC]
//
// --topology runs the same convergence comparison on a non-flat
// fabric (e.g. "fattree:4x8x2") — an extension beyond the paper's
// flat model.

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "scenarios.h"
#include "train_util.h"

int spardl::bench::RunFig9Convergence(const HarnessArgs& args) {
  const int workers = args.workers_or(14);
  const std::optional<TopologySpec> fabric =
      args.TopologyOr(std::nullopt, workers);
  std::printf(
      "== Fig. 9: convergence vs simulated training time, %d workers ==\n"
      "(Synthetic counterparts of the paper's tasks.)\n",
      workers);
  if (fabric.has_value()) {
    std::printf("Fabric: %s\n", fabric->Describe().c_str());
  }
  std::printf("\n");
  const std::vector<std::string> cases = {"vgg19", "vgg11", "lstm-imdb",
                                          "lstm-ptb"};
  const std::vector<std::pair<std::string, std::string>> algos = {
      {"topkdsa", "TopkDSA"},
      {"topka", "TopkA"},
      {"oktopk", "Ok-Topk"},
      {"spardl", "SparDL"}};

  // Every (case, method) run is one sweep point; the specs outlive it.
  std::vector<TrainingCaseSpec> specs;
  for (const std::string& case_key : cases) {
    specs.push_back(MakeTrainingCase(case_key));
  }
  bench::Sweep<bench::ConvergenceSeries> sweep;
  for (size_t c = 0; c < cases.size(); ++c) {
    const bool lstm_case = cases[c].rfind("lstm", 0) == 0;
    bench::TrainRunOptions options;
    options.num_workers = workers;
    options.topology = fabric;
    // LSTM gradients concentrate in few embedding rows; the short runs
    // here need a slightly denser budget for the signal to get through
    // (the paper's multi-thousand-iteration runs use 1e-2 throughout).
    options.k_ratio = lstm_case ? 0.03 : 0.01;
    options.epochs = lstm_case ? 6 : 5;
    options.iterations_per_epoch = args.iterations_or(lstm_case ? 12 : 10);
    for (const auto& [algo, label] : algos) {
      bench::AddTrainingCase(sweep, specs[c], algo, label, options);
    }
  }
  const std::vector<bench::ConvergenceSeries> series = sweep.Run();
  for (size_t c = 0; c < cases.size(); ++c) {
    bench::PrintConvergence(
        "-- " + specs[c].name + " --",
        {series.begin() + static_cast<std::ptrdiff_t>(c * algos.size()),
         series.begin() + static_cast<std::ptrdiff_t>((c + 1) * algos.size())});
  }
  return 0;
}
