// Reproduces Table I: latency/bandwidth complexity of the sparse
// All-Reduce methods. Measured message rounds (latency, in units of alpha)
// and received words (bandwidth, reported as multiples of k) per worker on
// the simulated cluster are printed next to the paper's closed-form
// predictions.

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"

namespace spardl {
namespace {

const ModelProfile kProfile = {"-", "synthetic", "-", 4'000'000, 0.0};

struct Row {
  std::string algo;
  int d;
};

/// The rows measured at `p`: gTopk runs at any P (fold generalisation),
/// but Table I's analytic row is the paper's power-of-two tree, so it is
/// compared only where the prediction formula applies; every d divides P.
std::vector<Row> RowsFor(int p) {
  std::vector<Row> rows = {{"topkdsa", 1}, {"topka", 1},   {"gtopk", 1},
                           {"oktopk", 1},  {"spardl", 1},  {"spardl", 2},
                           {"spardl", 7}};
  if (p % 7 != 0) rows.back().d = p / 2;  // keep d | P
  std::erase_if(rows, [p](const Row& row) {
    return (row.algo == "gtopk" && (p & (p - 1)) != 0) || p % row.d != 0;
  });
  return rows;
}

void PrintForWorkers(int p,
                     const std::vector<bench::PerUpdateResult>& results,
                     size_t* next) {
  const double k = 0.01 * static_cast<double>(kProfile.num_params);
  TablePrinter table({"method", "pred latency (a)", "meas latency (a)",
                      "pred bandwidth (kB)", "meas bandwidth (kB)"});
  for (const Row& row : RowsFor(p)) {
    const bench::PerUpdateResult& result = results[(*next)++];
    const bench::TableICost pred =
        bench::PredictTableI(row.algo, p, row.d, SagMode::kAuto);
    std::string pred_bw =
        pred.bandwidth_high < 0
            ? StrFormat("[%.2f, n-bound]", pred.bandwidth_low)
        : pred.bandwidth_low == pred.bandwidth_high
            ? StrFormat("%.2f", pred.bandwidth_low)
            : StrFormat("[%.2f, %.2f]", pred.bandwidth_low,
                        pred.bandwidth_high);
    table.AddRow({result.algo_label, StrFormat("%.0f", pred.latency),
                  StrFormat("%.1f", result.messages_per_update), pred_bw,
                  StrFormat("%.2f", result.words_per_update / k)});
  }
  std::printf("P = %d, n = %zu, k/n = 0.01\n%s\n", p, kProfile.num_params,
              table.ToString().c_str());
}

}  // namespace
}  // namespace spardl

int spardl::bench::RunTable1Complexity(const HarnessArgs& args) {
  std::printf(
      "== Table I: communication complexity of sparse All-Reduce methods "
      "==\n"
      "Latency in units of alpha (messages received per worker);\n"
      "bandwidth in units of k*beta (received words / k). Paper predictions "
      "vs simulated measurements.\n"
      "Notes: measured latency for direct-send methods is P-1 (+log P "
      "rounds) per hop where the paper rounds to P; gTopk's measured "
      "per-worker receive count undercounts its 2logP critical path, which "
      "spans workers (the simulated clock does capture it).\n\n");
  const int iterations = args.iterations_or(2);
  const std::vector<int> worker_counts =
      args.workers ? std::vector<int>{*args.workers} : std::vector<int>{8, 14};
  bench::Sweep<bench::PerUpdateResult> sweep;
  for (int p : worker_counts) {
    for (const Row& row : RowsFor(p)) {
      bench::PerUpdateOptions options;
      options.num_workers = p;
      options.k_ratio = 0.01;
      options.num_teams = row.d;
      options.measured_iterations = iterations;
      bench::AddPerUpdate(sweep, row.algo, kProfile, options);
    }
  }
  const std::vector<bench::PerUpdateResult> results = sweep.Run();
  size_t next = 0;
  for (int p : worker_counts) PrintForWorkers(p, results, &next);
  return 0;
}
