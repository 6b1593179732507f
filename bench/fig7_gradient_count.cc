// Reproduces Fig. 7: the number of sparse gradients held after using Bruck
// All-Gather to synchronise gradients among teams (B-SAG's observed union)
// changes slowly across batches — the property that makes the top-h
// controller (Algorithm 2) work.

#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/spardl.h"
#include "dl/grad_profile.h"
#include "metrics/table.h"
#include "scenarios.h"
#include "simnet/cluster.h"

int spardl::bench::RunFig7GradientCount(const HarnessArgs& args) {
  const int p = args.workers_or(14);
  // Teams must divide P: keep the paper's d=7 when 7 divides P, else the
  // largest divisor d with 1 < d < P. A prime P other than 7 has neither,
  // and with d = 1 there is no inter-team B-SAG to observe.
  int d = 1;
  if (p % 7 == 0) {
    d = 7;
  } else {
    for (int cand = p - 1; cand > 1; --cand) {
      if (p % cand == 0) {
        d = cand;
        break;
      }
    }
  }
  if (d == 1) {
    UsageError(StrFormat("--workers %d has no divisor d with 1 < d < P "
                         "(and is not a multiple of 7, where the paper's "
                         "d = 7 applies); B-SAG needs at least two teams",
                         p));
  }
  const size_t n = 2'000'000;
  const size_t k = 20'000;  // k/n = 1e-2
  const int iterations = args.iterations_or(400);
  if (iterations < 2) {
    UsageError("--iterations must be at least 2: the change statistic "
               "compares consecutive batches");
  }

  std::printf(
      "== Fig. 7: gradients after inter-team Bruck all-gather (B-SAG) ==\n"
      "P=%d, d=%d, n=%zu, k=%zu, %d batches; support drifts slowly as in "
      "training.\n\n",
      p, d, n, k, iterations);

  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  config.num_teams = d;
  config.residual_mode = ResidualMode::kNone;

  Cluster cluster(p, CostModel::Free());
  bench::ConfigureCluster(cluster);
  std::vector<std::unique_ptr<SparseAllReduce>> algos(static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] =
        std::move(*CreateAlgorithm("spardl-bsag", config));
  }
  const auto& observed = static_cast<const SparDL&>(*algos[0]);
  const ProfileGradientGenerator generator(n, 99, 64, /*drift_period=*/40);

  std::vector<double> series;
  series.reserve(static_cast<size_t>(iterations));
  for (int iter = 0; iter < iterations; ++iter) {
    SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
      const SparseVector candidates =
          generator.Generate(comm.rank(), iter, 2 * k);
      algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm,
                                                           candidates);
    }));
    series.push_back(static_cast<double>(observed.last_bsag_union()));
  }
  bench::ObserveRun(cluster, std::string(observed.name()));

  TablePrinter table({"batch", "union nnz", "target L=dk/P"});
  const size_t target = d * k / p;
  for (int iter = 0; iter < iterations; iter += 25) {
    table.AddRow({StrFormat("%d", iter),
                  StrFormat("%.0f", series[static_cast<size_t>(iter)]),
                  StrFormat("%zu", target)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Slow-change statistic: mean |relative step-to-step change|.
  double change = 0.0;
  double max_change = 0.0;
  for (size_t i = 1; i < series.size(); ++i) {
    const double rel = std::abs(series[i] - series[i - 1]) /
                       (series[i - 1] + 1.0);
    change += rel;
    max_change = std::max(max_change, rel);
  }
  change /= static_cast<double>(series.size() - 1);
  std::printf(
      "Mean batch-to-batch relative change: %.3f%% (max %.1f%%).\n"
      "Paper claim (Fig. 7): the count \"changes slowly with regard to "
      "iterations\", with occasional fluctuations at drift points — "
      "matched when the mean change is in the low percent range.\n",
      100.0 * change, 100.0 * max_change);
  return 0;
}
