// Reproduces Fig. 17: global (GRES) vs partial (PRES) vs local (LRES)
// residual collection, P = 14, with the learning-rate drop the paper
// applies at epoch 80 (scaled to this run's epoch budget). Four panels:
// (a) VGG-19-like, SparDL; (b) VGG-16-like, SparDL; (c) VGG-16-like,
// SparDL(R-SAG d=2); (d) VGG-16-like, SparDL(B-SAG d=7).
//
// Paper shape: GRES converges best (it alone recovers in-procedure
// residuals, which SparDL's multi-step selection produces in quantity);
// the gap is clearest after the LR drop.

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "scenarios.h"
#include "train_util.h"

namespace spardl {
namespace {

struct Panel {
  std::string title;
  std::string case_key;
  int d;
  SagMode sag_mode;
};

TrainingCaseSpec PanelCase(const std::string& case_key) {
  TrainingCaseSpec spec = MakeTrainingCase(case_key);
  // Harder variants of the synthetic tasks: with the paper's 160-epoch
  // budget the easy versions saturate long before the residual policies
  // can separate; extra label noise keeps the decision boundary tight.
  if (case_key == "vgg16") {
    spec.dataset_factory = [] {
      return MakeSyntheticClassification(96, 10, 3.2f, 101);
    };
  } else if (case_key == "vgg19") {
    spec.dataset_factory = [] {
      return MakeSyntheticClassification(128, 20, 3.2f, 102);
    };
  }
  return spec;
}

}  // namespace
}  // namespace spardl

int spardl::bench::RunFig17Residuals(const HarnessArgs& args) {
  std::printf(
      "== Fig. 17: residual collection ablation (GRES / PRES / LRES) "
      "==\n\n");
  const int p = args.workers_or(14);
  const std::vector<Panel> panels = {
      {"-- (a) VGG-19-like, SparDL --", "vgg19", 1, SagMode::kAuto},
      {"-- (b) VGG-16-like, SparDL --", "vgg16", 1, SagMode::kAuto},
      {"-- (c) VGG-16-like, SparDL (R-SAG, d=2) --", "vgg16", 2,
       SagMode::kRecursive},
      {"-- (d) VGG-16-like, SparDL (B-SAG, d=7) --", "vgg16", 7,
       SagMode::kBruck}};
  const std::vector<std::pair<ResidualMode, std::string>> modes = {
      {ResidualMode::kGlobal, "SparDL-GRES"},
      {ResidualMode::kPartial, "SparDL-PRES"},
      {ResidualMode::kLocal, "SparDL-LRES"}};
  std::vector<TrainingCaseSpec> specs;
  for (const Panel& panel : panels) specs.push_back(PanelCase(panel.case_key));
  bench::Sweep<bench::ConvergenceSeries> sweep;
  for (size_t i = 0; i < panels.size(); ++i) {
    const Panel& panel = panels[i];
    if (p % panel.d != 0) continue;
    for (const auto& [mode, label] : modes) {
      bench::TrainRunOptions options;
      options.num_workers = p;
      options.k_ratio = 0.002;  // tight budget makes residual policy matter
      options.epochs = 10;
      options.iterations_per_epoch = args.iterations_or(10);
      options.topology = args.TopologyOr(std::nullopt, p);
      options.placement = args.placement_or(PlacementPolicy::kContiguous);
      options.num_teams = panel.d;
      if (panel.d > 1) options.sag_mode = panel.sag_mode;
      options.residual_mode = mode;
      options.lr_drop_fraction = 0.6;  // the paper's epoch-80 drop, scaled
      bench::AddTrainingCase(sweep, specs[i], "spardl", label, options);
    }
  }
  const std::vector<bench::ConvergenceSeries> series = sweep.Run();
  auto next = series.begin();
  for (const Panel& panel : panels) {
    if (p % panel.d != 0) {
      std::printf("%s skipped: d=%d does not divide P=%d\n\n",
                  panel.title.c_str(), panel.d, p);
      continue;
    }
    const auto end = next + static_cast<std::ptrdiff_t>(modes.size());
    bench::PrintConvergence(panel.title, {next, end});
    next = end;
  }
  return 0;
}
