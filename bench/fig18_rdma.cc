// Reproduces Fig. 18: per-update time on the 5-worker RDMA/InfiniBand
// cluster (two orders of magnitude lower alpha, ~100x beta) — VGG-19 with
// all baselines and BERT with Ok-Topk. Paper shape: SparDL stays fastest
// even when bandwidth is nearly free and latency differences dominate —
// 4.0/3.4/3.0x over the baselines on VGG-19 and 4.2x over Ok-Topk on
// BERT.

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"

namespace spardl {
namespace {

void Run(const std::string& model, const std::vector<std::string>& algos,
         const bench::HarnessArgs& args) {
  const ModelProfile& profile = ProfileByModel(model);
  bench::PerUpdateOptions options;
  options.num_workers = args.workers_or(5);
  options.k_ratio = 0.01;
  options.cost_model = CostModel::InfiniBandRdma();
  options.measured_iterations = args.iterations_or(1);
  const auto results = bench::MeasurePerUpdateAll(algos, profile, options);
  const double spardl_comm = results.back().comm_seconds;
  TablePrinter table(
      {"method", "comm (s)", "comp (s)", "total (s)", "comm speedup"});
  for (const auto& r : results) {
    table.AddRow({r.algo_label, StrFormat("%.6f", r.comm_seconds),
                  StrFormat("%.3f", r.compute_seconds),
                  StrFormat("%.4f", r.total_seconds()),
                  StrFormat("%.1fx", r.comm_seconds / spardl_comm)});
  }
  std::printf("%s on RDMA (n=%zu, P=%d)\n%s\n", profile.model.c_str(),
              profile.num_params, options.num_workers,
              table.ToString().c_str());
}

}  // namespace
}  // namespace spardl

int spardl::bench::RunFig18Rdma(const HarnessArgs& args) {
  std::printf(
      "== Fig. 18: per-update time on the RDMA (InfiniBand) cluster, %d "
      "workers ==\n\n",
      args.workers_or(5));
  Run("VGG-19", {"topkdsa", "topka", "oktopk", "spardl"}, args);
  Run("BERT", {"oktopk", "spardl"}, args);
  return 0;
}
