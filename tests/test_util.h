#ifndef SPARDL_TESTS_TEST_UTIL_H_
#define SPARDL_TESTS_TEST_UTIL_H_

#include <malloc.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/sparse_allreduce.h"
#include "simnet/cluster.h"
#include "sparse/part_list.h"
#include "sparse/sparse_vector.h"

namespace spardl {
namespace testing {

/// Deterministic dense gradient with a heavy-tailed magnitude profile
/// (a few large entries, many small ones) — the shape real DL gradients
/// have and the reason top-k sparsification works.
inline std::vector<float> RandomGradient(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> grad(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    const double magnitude = (u < 0.05) ? rng.NextGaussian() * 1.0
                                        : rng.NextGaussian() * 0.01;
    grad[i] = static_cast<float>(magnitude);
  }
  return grad;
}

/// Element-wise sum of all workers' gradients (the exact all-reduce).
inline std::vector<float> ReferenceSum(
    const std::vector<std::vector<float>>& grads) {
  std::vector<float> sum(grads[0].size(), 0.0f);
  for (const auto& g : grads) {
    for (size_t i = 0; i < g.size(); ++i) sum[i] += g[i];
  }
  return sum;
}

/// Sets the fiber schedule seed of every cluster constructed in this scope
/// (`Cluster::set_default_schedule_seed`) and restores the previous one on
/// exit, so a test can pin seeds even inside a `--schedule-seed` rerun.
class ScopedScheduleSeed {
 public:
  explicit ScopedScheduleSeed(uint64_t seed)
      : previous_(Cluster::default_schedule_seed()) {
    Cluster::set_default_schedule_seed(seed);
  }
  ~ScopedScheduleSeed() { Cluster::set_default_schedule_seed(previous_); }
  ScopedScheduleSeed(const ScopedScheduleSeed&) = delete;
  ScopedScheduleSeed& operator=(const ScopedScheduleSeed&) = delete;

 private:
  const uint64_t previous_;
};

/// The non-empty parts `list` visits, by address, in list order.
inline std::vector<const SparseVector*> PartsOf(const PartList& list) {
  std::vector<const SparseVector*> parts;
  list.ForEach([&parts](const SparseVector& part) { parts.push_back(&part); });
  return parts;
}

/// Heap bytes in use (arena plus mmap'd blocks), in MiB.
inline double HeapMiB() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1 << 20);
}

/// Runs `fn(comm, rank)` on a fresh cluster of `p` workers with a free cost
/// model and returns per-rank results.
template <typename T>
std::vector<T> RunOnCluster(int p, const std::function<T(Comm&)>& fn,
                            CostModel cost_model = CostModel::Free()) {
  Cluster cluster(p, cost_model);
  std::vector<T> results(static_cast<size_t>(p));
  cluster.Run([&](Comm& comm) {
    results[static_cast<size_t>(comm.rank())] = fn(comm);
  });
  return results;
}

/// Per-worker algorithm instances built by `factory(rank)`, run for
/// `iterations` iterations on fresh random gradients each iteration.
/// Returns the final-iteration outputs per rank. Gradients are written to
/// `grad_history[iter][rank]` when non-null.
inline std::vector<SparseVector> RunAlgorithm(
    int p, size_t n, int iterations,
    const std::function<std::unique_ptr<SparseAllReduce>(int)>& factory,
    std::vector<std::vector<std::vector<float>>>* grad_history = nullptr,
    std::vector<std::vector<SparseVector>>* all_outputs = nullptr,
    uint64_t seed_base = 1234) {
  Cluster cluster(p, CostModel::Free());
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) algos[static_cast<size_t>(r)] = factory(r);

  std::vector<SparseVector> last(static_cast<size_t>(p));
  if (grad_history != nullptr) grad_history->clear();
  if (all_outputs != nullptr) all_outputs->clear();
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<std::vector<float>> grads(static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      grads[static_cast<size_t>(r)] = RandomGradient(
          n, seed_base + static_cast<uint64_t>(iter) * 1000 +
                 static_cast<uint64_t>(r));
    }
    if (grad_history != nullptr) grad_history->push_back(grads);
    cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      last[rank] = algos[rank]->Run(comm, grads[rank]);
    });
    if (all_outputs != nullptr) all_outputs->push_back(last);
  }
  return last;
}

}  // namespace testing
}  // namespace spardl

#endif  // SPARDL_TESTS_TEST_UTIL_H_
