// Compare every sparse All-Reduce method on one paper-scale workload
// (VGG-19 profile, 20.1M parameters, 14 workers, k/n = 1%), printing the
// paper's headline table: per-update communication time, bandwidth and
// latency per worker.
//
//   $ ./build/bench/spardl-bench compare_algorithms

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"

int spardl::bench::RunCompareAlgorithms(const HarnessArgs& /*args*/) {
  const ModelProfile& profile = ProfileByModel("VGG-19");
  std::printf(
      "comparing sparse All-Reduce methods on %s (%zu params), P=14, "
      "k/n=1%%\n\n",
      profile.model.c_str(), profile.num_params);

  bench::PerUpdateOptions options;
  options.num_workers = 14;
  options.k_ratio = 0.01;
  options.measured_iterations = 1;

  const std::vector<std::string> algos = {"topkdsa", "topka", "oktopk",
                                          "spardl"};
  const std::vector<int> team_counts = {1, 2, 7, 14};
  bench::Sweep<bench::PerUpdateResult> sweep;
  for (const std::string& algo : algos) {
    bench::AddPerUpdate(sweep, algo, profile, options);
  }
  for (int d : team_counts) {
    bench::PerUpdateOptions teams = options;
    teams.num_teams = d;
    bench::AddPerUpdate(sweep, "spardl", profile, teams);
  }
  const std::vector<bench::PerUpdateResult> results = sweep.Run();

  TablePrinter table({"method", "comm (s)", "latency (msgs)",
                      "bandwidth (MWords)", "vs SparDL"});
  const double spardl_comm = results[algos.size() - 1].comm_seconds;
  for (size_t i = 0; i < algos.size(); ++i) {
    const bench::PerUpdateResult& r = results[i];
    table.AddRow({r.algo_label, StrFormat("%.4f", r.comm_seconds),
                  StrFormat("%.0f", r.messages_per_update),
                  StrFormat("%.2f", r.words_per_update / 1e6),
                  StrFormat("%.2fx", r.comm_seconds / spardl_comm)});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("with teams (Spar-All-Gather):\n");
  TablePrinter sag_table({"config", "comm (s)", "latency (msgs)"});
  for (size_t i = algos.size(); i < results.size(); ++i) {
    const bench::PerUpdateResult& r = results[i];
    sag_table.AddRow({std::string(r.algo_label),
                      StrFormat("%.4f", r.comm_seconds),
                      StrFormat("%.0f", r.messages_per_update)});
  }
  std::printf("%s", sag_table.ToString().c_str());
  return 0;
}
