// Reproduces Fig. 10: per-update time on the large cases — ResNet-50
// (23.5M params) and BERT (133.5M params) — SparDL vs Ok-Topk, 14 workers.
// Paper shape: SparDL 2.3x (ResNet-50) and 2.0x (BERT) faster than
// Ok-Topk in communication.

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
  for (const std::string& model : {std::string("ResNet-50"),
                                   std::string("BERT")}) {
    const ModelProfile& profile = ProfileByModel(model);
    bench::PerUpdateOptions options;
    options.num_workers = p;
    options.k_ratio = 0.01;
    options.measured_iterations = args.iterations_or(1);
    options.topology = args.TopologyOr(std::nullopt, p);
    options.placement = args.placement_or(PlacementPolicy::kContiguous);
    const auto results = bench::MeasurePerUpdateAll(
        {"oktopk", "spardl"}, profile, options);
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
