// Quickstart: synchronise sparse gradients across 8 simulated workers with
// SparDL and check the synchronous-SGD consistency guarantee.
//
//   $ ./build/examples/quickstart
//
// What it shows:
//  1. build a simulated cluster (the MPI stand-in),
//  2. configure SparDL (k = 1% of n, no teams),
//  3. each worker contributes its own dense gradient,
//  4. every worker gets back the same global sparse gradient, and the
//     discarded remainder is retained as residual for the next iteration.

#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "common/random.h"
#include "simnet/cluster.h"

int main() {
  using namespace spardl;  // NOLINT

  const int num_workers = 8;
  const size_t n = 100'000;  // flattened model size
  const size_t k = n / 100;  // paper default: 1% density

  // 1. The simulated cluster. CostModel::Ethernet() charges the paper's
  //    alpha-beta costs; swap in InfiniBandRdma() to model the RDMA
  //    cluster of §IV-J.
  Cluster cluster(num_workers, CostModel::Ethernet());

  // 2. One SparDL instance per worker (it owns that worker's residuals).
  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = num_workers;
  config.num_teams = 1;  // plain SparDL: SRS + Bruck all-gather

  std::vector<std::unique_ptr<SparseAllReduce>> spardl(num_workers);
  for (int r = 0; r < num_workers; ++r) {
    auto created = CreateAlgorithm("spardl", config);
    if (!created.ok()) {
      std::fprintf(stderr, "config error: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    spardl[static_cast<size_t>(r)] = std::move(*created);
  }

  // 3+4. One training iteration: local gradients in, identical global
  //      sparse gradient out.
  std::vector<SparseVector> global(num_workers);
  cluster.Run([&](Comm& comm) {
    Rng rng(42 + static_cast<uint64_t>(comm.rank()));
    std::vector<float> grad(n);
    for (float& v : grad) v = static_cast<float>(rng.NextGaussian());

    global[static_cast<size_t>(comm.rank())] =
        spardl[static_cast<size_t>(comm.rank())]->Run(comm, grad);
  });

  bool consistent = true;
  for (int r = 1; r < num_workers; ++r) {
    if (!(global[static_cast<size_t>(r)] == global[0])) consistent = false;
  }
  std::printf("global gradient nnz : %zu (k = %zu)\n", global[0].size(), k);
  std::printf("replicas consistent : %s\n", consistent ? "yes" : "NO");
  std::printf("simulated time      : %.3f ms\n",
              cluster.MaxSimSeconds() * 1e3);
  std::printf("per-worker bandwidth: %lu words received\n",
              static_cast<unsigned long>(cluster.MaxWordsReceived()));
  std::printf("latency rounds      : %lu messages\n",
              static_cast<unsigned long>(cluster.MaxMessagesReceived()));
  return consistent ? 0 : 1;
}
