// Reproduces Fig. 10: per-update time on the large cases — ResNet-50
// (23.5M params) and BERT (133.5M params) — SparDL vs Ok-Topk, 14 workers.
// Paper shape: SparDL 2.3x (ResNet-50) and 2.0x (BERT) faster than
// Ok-Topk in communication.

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"

int spardl::bench::RunFig10LargeModels(const HarnessArgs& args) {
  const int p = args.workers_or(14);
  std::printf(
      "== Fig. 10: per-update time on large models, %d workers ==\n\n", p);
  const std::vector<std::string> models = {"ResNet-50", "BERT"};
  const std::vector<std::string> algos = {"oktopk", "spardl"};
  bench::PerUpdateOptions options;
  options.num_workers = p;
  options.k_ratio = 0.01;
  options.measured_iterations = args.iterations_or(1);
  options.topology = args.TopologyOr(std::nullopt, p);
  options.placement = args.placement_or(PlacementPolicy::kContiguous);
  bench::Sweep<bench::PerUpdateResult> sweep;
  for (const std::string& model : models) {
    for (const std::string& algo : algos) {
      bench::AddPerUpdate(sweep, algo, ProfileByModel(model), options);
    }
  }
  const std::vector<bench::PerUpdateResult> all = sweep.Run();
  for (size_t m = 0; m < models.size(); ++m) {
    const ModelProfile& profile = ProfileByModel(models[m]);
    const std::vector<bench::PerUpdateResult> results(
        all.begin() + static_cast<std::ptrdiff_t>(m * algos.size()),
        all.begin() + static_cast<std::ptrdiff_t>((m + 1) * algos.size()));
    TablePrinter table(
        {"method", "comm (s)", "comp (s)", "total (s)", "comm speedup"});
    const double spardl_comm = results.back().comm_seconds;
    for (const auto& r : results) {
      table.AddRow({r.algo_label, StrFormat("%.4f", r.comm_seconds),
                    StrFormat("%.3f", r.compute_seconds),
                    StrFormat("%.4f", r.total_seconds()),
                    StrFormat("%.1fx", r.comm_seconds / spardl_comm)});
    }
    std::printf("%s (%s on %s, n=%zu)\n%s\n", profile.case_name.c_str(),
                profile.model.c_str(), profile.dataset.c_str(),
                profile.num_params, table.ToString().c_str());
  }
  std::printf(
      "Paper: SparDL is 2.3x (ResNet-50) / 2.0x (BERT) faster than "
      "Ok-Topk in communication cost.\n");
  return 0;
}
