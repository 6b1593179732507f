// Explore the analytical alpha-beta cost model of Table I without running
// anything: prints predicted communication seconds per method over a range
// of worker counts and network settings, so users can pick a method (and a
// team count) for their own cluster before deploying.
//
//   $ ./build/bench/spardl-bench cost_model_explorer

#include <cstdio>
#include <string>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"
#include "simnet/cost_model.h"

namespace spardl {
namespace {

// Predicted comm seconds from the Table-I closed forms: the upper
// bandwidth bound where the paper gives a range, except for TopkDSA,
// whose upper bound depends on n and which therefore uses the lower one.
// SparDL with teams is always the B-SAG row.
double Predict(const std::string& algo, int p, double k, const CostModel& cm,
               int d = 1) {
  const bench::TableICost cost =
      bench::PredictTableI(algo, p, d, SagMode::kBruck);
  const double bandwidth =
      cost.bandwidth_high < 0 ? cost.bandwidth_low : cost.bandwidth_high;
  return cost.latency * cm.alpha + bandwidth * k * cm.beta;
}

void Explore(const std::string& net_name, const CostModel& cm, size_t n,
             double k_ratio) {
  const double k = k_ratio * static_cast<double>(n);
  std::printf("--- %s (alpha=%.1f us, beta=%.3f ns/word), n=%zu, k/n=%g ---\n",
              net_name.c_str(), cm.alpha * 1e6, cm.beta * 1e9, n, k_ratio);
  TablePrinter table({"P", "TopkA", "TopkDSA", "gTopk", "Ok-Topk", "SparDL",
                      "SparDL(B-SAG d~sqrtP)"});
  for (int p : {4, 8, 16, 32, 64, 128}) {
    int d = 1;
    while (d * d < p) ++d;  // d ~ sqrt(P); clamp to a divisor-ish value
    table.AddRow(
        {StrFormat("%d", p),
         StrFormat("%.2f ms", Predict("topka", p, k, cm) * 1e3),
         StrFormat("%.2f ms", Predict("topkdsa", p, k, cm) * 1e3),
         StrFormat("%.2f ms", Predict("gtopk", p, k, cm) * 1e3),
         StrFormat("%.2f ms", Predict("oktopk", p, k, cm) * 1e3),
         StrFormat("%.2f ms", Predict("spardl", p, k, cm) * 1e3),
         StrFormat("%.2f ms", Predict("spardl", p, k, cm, d) * 1e3)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace spardl

int spardl::bench::RunCostModelExplorer(const HarnessArgs& /*args*/) {
  const size_t n = 20'100'000;
  const double k_ratio = 0.01;
  std::printf("Table-I cost model explorer\n\n");
  Explore("1 Gbps Ethernet", CostModel::Ethernet(), n, k_ratio);
  Explore("100 Gbps InfiniBand RDMA", CostModel::InfiniBandRdma(), n,
          k_ratio);
  std::printf(
      "Reading: on high-latency networks SparDL(B-SAG) gains most (it "
      "trades bandwidth for fewer rounds); on RDMA the latency terms are "
      "small and plain SparDL's bandwidth optimality dominates.\n");
  return 0;
}
