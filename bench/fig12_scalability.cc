// Reproduces Fig. 12: (a) speedup vs number of workers (5, 8, 11, 14),
// relative to one epoch of TopkDSA at 8 workers on the VGG-19 case;
// (b) accuracy vs time with 8 workers, where the paper adds gTopk (its
// formulation is power-of-two only; ours folds extras, so (a) includes it
// at every P as an extension beyond the paper's plot). Paper shape:
// SparDL's speedup grows fastest with P; at 8 workers its margin is
// smaller than at 14.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"
#include "train_util.h"

int spardl::bench::RunFig12Scalability(const HarnessArgs& args) {
  const ModelProfile& profile = ProfileByModel("VGG-19");

  // == Extension beyond the figure: large-P rows on a contended fabric ==
  // Gated on an explicit --workers >= 256 ask, and replaces the paper
  // sweep entirely: these rows exist to exercise the simulator at
  // simulated-cluster scale (P = 256 / 1024 / 4096 on one machine), not
  // to reproduce a plot. They run one at a time, since each times itself
  // (on stderr, so stdout stays simulated numbers only). TopkDSA's
  // direct sends materialise Theta(P^2) packets, and TopkA, though
  // log-round, has every worker receive and sum all P * k candidates,
  // Theta(P^2 * k) host work per update; both are excluded. gTopk and
  // SparDL, whose messages stay O(k) at every step, carry the scaling
  // story. k/n shrinks to 0.1% so per-worker candidate volume stays
  // laptop-sized at 4M params.
  if (args.workers && *args.workers >= 256) {
    const ModelProfile synth = {"-", "synthetic", "-", 4'000'000, 0.0};
    std::vector<int> large_counts;
    for (int p : {256, 1024, 4096}) {
      if (p <= *args.workers) large_counts.push_back(p);
    }
    std::printf(
        "== Large-P extension: per-update time on an oversubscribed "
        "fat-tree ==\n"
        "Synthetic n=%zu, k/n=0.1%%; racks of 8, oversub 4.0, 2 ECMP "
        "cores. Each row's wall clock for the whole run "
        "(warmup+measured), i.e. the simulator's cost, goes to stderr.\n\n",
        synth.num_params);
    TablePrinter large_table({"P", "method", "comm s/update", "msgs/update"});
    for (int p : large_counts) {
      for (const std::string& algo : {std::string("gtopk"),
                                      std::string("spardl")}) {
        bench::PerUpdateOptions options;
        options.num_workers = p;
        options.k_ratio = 0.001;
        options.measured_iterations = args.iterations_or(1);
        options.topology =
            TopologySpec::FatTree(p, /*rack_size=*/8, /*oversubscription=*/
                                  4.0, CostModel::Ethernet(),
                                  /*num_cores=*/2);
        const auto wall_start = std::chrono::steady_clock::now();
        const bench::PerUpdateResult r =
            bench::MeasurePerUpdate(algo, synth, options);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        std::fprintf(stderr, "P=%d %s: %.1fs wall\n", p,
                     r.algo_label.c_str(), wall);
        large_table.AddRow({StrFormat("%d", p), r.algo_label,
                            StrFormat("%.4f", r.comm_seconds),
                            StrFormat("%.0f", r.messages_per_update)});
      }
    }
    std::printf("%s\n", large_table.ToString().c_str());
    return 0;  // the figure's small-P sweeps are a separate exercise
  }

  // --workers caps the sweep (the figure's shape needs several P values,
  // so the override trims instead of replacing the axis).
  std::vector<int> worker_counts = {5, 8, 11, 14};
  if (args.workers) {
    std::erase_if(worker_counts,
                  [&](int p) { return p > *args.workers; });
    if (worker_counts.empty()) worker_counts = {*args.workers};
  }
  const std::vector<std::string> algos = {"topkdsa", "topka", "gtopk",
                                          "oktopk", "spardl"};

  std::printf(
      "== Fig. 12(a): speedup vs number of workers (VGG-19 profile) ==\n"
      "Reference: per-epoch time of TopkDSA at P=8 (epoch = per-update "
      "time x fixed iteration count; the constant cancels in ratios).\n\n");

  bench::Sweep<bench::PerUpdateResult> sweep;
  for (int p : worker_counts) {
    for (const std::string& algo : algos) {
      bench::PerUpdateOptions options;
      options.num_workers = p;
      options.k_ratio = 0.01;
      options.measured_iterations = args.iterations_or(1);
      bench::AddPerUpdate(sweep, algo, profile, options);
    }
  }
  const std::vector<bench::PerUpdateResult> results = sweep.Run();
  std::map<std::string, std::map<int, double>> total_seconds;
  for (size_t i = 0; i < results.size(); ++i) {
    total_seconds[algos[i % algos.size()]]
                 [worker_counts[i / algos.size()]] = results[i].total_seconds();
  }
  const int reference_p =
      total_seconds["topkdsa"].count(8) != 0 ? 8 : worker_counts.front();
  const double reference = total_seconds["topkdsa"][reference_p];
  std::vector<std::string> header = {"method"};
  for (int p : worker_counts) header.push_back(StrFormat("P=%d", p));
  TablePrinter table(header);
  for (const std::string& algo : algos) {
    std::vector<std::string> row = {algo};
    for (int p : worker_counts) {
      auto it = total_seconds[algo].find(p);
      row.push_back(it == total_seconds[algo].end()
                        ? "-"
                        : StrFormat("%.2fx", reference / it->second));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf(
      "== Fig. 12(b): convergence with 8 workers (gTopk included) ==\n\n");
  const TrainingCaseSpec spec = MakeTrainingCase("vgg19");
  bench::TrainRunOptions options;
  options.num_workers = 8;  // the paper's Fig. 12(b) setup
  options.k_ratio = 0.01;
  options.epochs = 5;
  options.iterations_per_epoch = args.iterations_or(10);
  bench::Sweep<bench::ConvergenceSeries> training;
  for (const auto& [algo, label] :
       std::vector<std::pair<std::string, std::string>>{
           {"topkdsa", "TopkDSA"},
           {"topka", "TopkA"},
           {"gtopk", "gTopk"},
           {"oktopk", "Ok-Topk"},
           {"spardl", "SparDL"}}) {
    bench::AddTrainingCase(training, spec, algo, label, options);
  }
  const std::vector<bench::ConvergenceSeries> series = training.Run();
  bench::PrintConvergence("-- Case 2 with 8 workers --", series);
  return 0;
}
