// Ablation of two SparDL design choices:
//  (1) the §III-B "Optimization for SRS" (sparsify lazily, only the next
//      outgoing bag) vs eager re-sparsification after every summation —
//      same wire volume, fewer top-k passes, lower wall-clock time;
//  (2) Bruck vs recursive-doubling all-gather on non-power-of-two P —
//      why SparDL ships Bruck.

#include <chrono>
#include <cstdio>
#include <vector>

#include "collectives/sparse_allgather.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/spar_reduce_scatter.h"
#include "metrics/table.h"
#include "scenarios.h"
#include "simnet/cluster.h"

namespace spardl {
namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void LazyVsEager(const bench::HarnessArgs& args) {
  const int p = args.workers_or(14);
  const int iterations = args.iterations_or(3);
  const size_t n = 1 << 20;
  const size_t k = n / 100;
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    Rng rng(static_cast<uint64_t>(r) + 5);
    std::vector<float> g(n);
    for (float& v : g) v = static_cast<float>(rng.NextGaussian());
    grads.push_back(std::move(g));
  }

  // Stdout carries only simulated numbers; the measured wall clock goes
  // to stderr.
  TablePrinter table({"variant", "wire words / worker"});
  for (bool lazy : {false, true}) {
    Cluster cluster(
        *args.TopologyOr(TopologySpec::Flat(p, CostModel::Ethernet()), p));
    bench::ConfigureCluster(cluster);
    const double wall = WallSeconds([&] {
      for (int iter = 0; iter < iterations; ++iter) {
        SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
          SrsOptions options;
          options.k = k;
          options.lazy_sparsify = lazy;
          SparReduceScatter(comm, CommGroup::World(comm),
                            grads[static_cast<size_t>(comm.rank())],
                            options, nullptr);
        }));
      }
    });
    bench::ObserveRun(cluster, lazy ? "lazy" : "eager");
    const char* variant = lazy ? "lazy (paper optimisation)" : "eager";
    std::fprintf(stderr, "SRS ablation, %s: %.3f wall s / iter\n", variant,
                 wall / iterations);
    table.AddRow({variant, StrFormat("%lu", static_cast<unsigned long>(
                                                cluster.MaxWordsReceived() /
                                                iterations))});
  }
  std::printf(
      "SRS sparsification timing ablation (P=%d, n=%zu, k/n=1%%)\n%s\n", p,
      n, table.ToString().c_str());
}

void BruckVsRecursiveDoubling(const bench::HarnessArgs& args) {
  TablePrinter table({"P", "Bruck rounds", "Bruck words",
                      "recursive-doubling applicability"});
  // --workers collapses the P sweep to the requested size.
  const std::vector<int> sweep =
      args.workers.has_value() ? std::vector<int>{*args.workers}
                               : std::vector<int>{8, 12, 14};
  for (int p : sweep) {
    Cluster cluster(p, CostModel::Ethernet());
    bench::ConfigureCluster(cluster);
    SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
      SparseVector mine;
      mine.PushBack(static_cast<GradIndex>(comm.rank()), 1.0f);
      BruckAllGather(comm, CommGroup::World(comm), PartList(std::move(mine)));
    }));
    bench::ObserveRun(cluster, StrFormat("bruck P=%d", p));
    table.AddRow({StrFormat("%d", p),
                  StrFormat("%lu", static_cast<unsigned long>(
                                       cluster.MaxMessagesReceived())),
                  StrFormat("%lu", static_cast<unsigned long>(
                                       cluster.MaxWordsReceived())),
                  (p & (p - 1)) == 0 ? "works" : "needs padding/extra step"});
  }
  std::printf(
      "All-gather choice ablation (why SparDL uses Bruck, §III-B)\n%s\n",
      table.ToString().c_str());
}

}  // namespace
}  // namespace spardl

int spardl::bench::RunAblationSrs(const HarnessArgs& args) {
  std::printf("== Ablations of SparDL design choices ==\n\n");
  LazyVsEager(args);
  BruckVsRecursiveDoubling(args);
  return 0;
}
