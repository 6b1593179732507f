// Microbenchmarks (google-benchmark) for the primitives on SparDL's hot
// path: candidate generation, top-k selection, sparse merge-summation, and
// the collectives' wall-clock cost on the in-process cluster.
//
// Deliberately NOT a spardl-bench scenario: google-benchmark owns this
// binary's command line (--benchmark_filter and friends), and the
// harness --workers/--topology flags would collide with the fixed
// per-benchmark size arguments. Size this one with --benchmark_filter
// instead.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "collectives/sparse_allgather.h"
#include "common/random.h"
#include "core/spar_reduce_scatter.h"
#include "dl/grad_profile.h"
#include "simnet/cluster.h"
#include "sparse/topk.h"

namespace spardl {
namespace {

std::vector<float> DenseGradient(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.NextGaussian());
  return out;
}

SparseVector RandomSparse(size_t n, size_t nnz, uint64_t seed) {
  Rng rng(seed);
  SparseVector out;
  GradIndex idx = 0;
  const size_t max_gap = std::max<size_t>(2, n / nnz);
  for (size_t i = 0; i < nnz && idx < n; ++i) {
    idx += 1 + static_cast<GradIndex>(rng.NextBounded(max_gap));
    if (idx >= n) break;
    out.PushBack(idx, static_cast<float>(rng.NextGaussian()));
  }
  return out;
}

// `build()`'s value, built once per process for each benchmark argument.
// The gate runs every kernel in 50 interleaved repetitions, and drawing
// BM_TopKDense's 4M Gaussians or BM_SumAllTopkA's 64 top-k sets in each of
// them took longer than the timed loop. Every lambda has its own type, so
// each call site keeps its own cache. Callers copy the value, so each
// repetition still times a freshly allocated input: timing the cached one,
// or caching the small sparse inputs too, moved the ratio of
// BM_TopKSparse/1024 to BM_Reference through memory placement alone.
template <typename Build>
const std::invoke_result_t<Build>& BuiltOnce(int64_t arg, Build build) {
  static std::map<int64_t, std::invoke_result_t<Build>> cache;
  auto it = cache.find(arg);
  if (it == cache.end()) it = cache.emplace(arg, build()).first;
  return it->second;
}

// Best-of-repetitions aggregate for the perf-gated kernels: over
// items_per_second it is the fastest repetition. The tier-1 gate
// (`spardl-analyze --micro-run`) reads it because on a shared host the
// fastest of many interleaved repetitions is far steadier than one pass.
double MaxOf(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

// The gate's reference: heapsort of 64 Ki LCG-generated uint32_t (the
// input of benchmark/'s ReferenceKernelMs). The gate divides each kernel's
// best by this one's from the same interleaved repetitions, so whole-host
// speed phases cancel out. So that code placement cannot move it, its
// timed loop calls nothing out of line (the linker places std::sort's
// instantiations freely) and the function is aligned to 64 bytes.
[[gnu::aligned(64)]] void BM_Reference(benchmark::State& state) {
  constexpr size_t kKeys = size_t{1} << 16;
  std::vector<uint32_t> keys(kKeys);
  uint32_t* const a = keys.data();
  for (auto _ : state) {
    uint32_t x = 12345;
    for (size_t i = 0; i < kKeys; ++i) {
      x = x * 1664525u + 1013904223u;
      a[i] = x;
    }
    // Heapsort: sift each inner node down to build the heap, then swap
    // its top past the shrinking heap and sift the new root down.
    for (size_t next = kKeys / 2, heap = kKeys; heap > 1;) {
      size_t root = 0;
      if (next > 0) {
        root = --next;
      } else {
        std::swap(a[0], a[--heap]);
      }
      const uint32_t v = a[root];
      for (size_t child = 2 * root + 1; child < heap; child = 2 * root + 1) {
        if (child + 1 < heap && a[child + 1] > a[child]) ++child;
        if (a[child] <= v) break;
        a[root] = a[child];
        root = child;
      }
      a[root] = v;
    }
    benchmark::DoNotOptimize(a);
    benchmark::ClobberMemory();
  }
  if (!std::is_sorted(keys.begin(), keys.end())) {
    state.SkipWithError("BM_Reference did not sort");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKeys));
}
BENCHMARK(BM_Reference)->ComputeStatistics("max", MaxOf);

void BM_ProfileGenerate(benchmark::State& state) {
  // One worker's candidate set at the per-update call sizes of
  // benchmark/'s paper_p14_flat (n = 20.1M, 1.5k = 301,500) and
  // largep_p1024_fattree (n = 4M, 6,000) workloads.
  const auto n = static_cast<size_t>(state.range(0));
  const auto count = static_cast<size_t>(state.range(1));
  const ProfileGradientGenerator generator(n, 2024);
  int64_t entries = 0;
  for (auto _ : state) {
    const SparseVector out = generator.Generate(0, 0, count);
    benchmark::DoNotOptimize(out.size());
    entries += static_cast<int64_t>(out.size());
  }
  state.SetItemsProcessed(entries);
}
BENCHMARK(BM_ProfileGenerate)
    ->Args({20'100'000, 301'500})
    ->Args({4'000'000, 6'000})
    ->ComputeStatistics("max", MaxOf);

void BM_TopKDense(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = n / 100;
  const std::vector<float> dense =
      BuiltOnce(state.range(0), [n] { return DenseGradient(n, 1); });
  TopKSelector selector;
  SparseVector kept;
  SparseVector discarded;
  for (auto _ : state) {
    selector.SelectDense(dense, 0, k, &kept, &discarded);
    benchmark::DoNotOptimize(kept.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TopKDense)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22)
    ->ComputeStatistics("max", MaxOf);

void BM_TopKSparse(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const SparseVector input = RandomSparse(100 * nnz, nnz, 2);
  TopKSelector selector;
  SparseVector kept;
  SparseVector discarded;
  for (auto _ : state) {
    selector.SelectSparse(input, nnz / 4, &kept, &discarded);
    benchmark::DoNotOptimize(kept.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_TopKSparse)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18)
    ->ComputeStatistics("max", MaxOf);

void BM_MergeSum(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const SparseVector a = RandomSparse(20 * nnz, nnz, 3);
  const SparseVector b = RandomSparse(20 * nnz, nnz, 4);
  SparseVector out;
  for (auto _ : state) {
    MergeSum(a, b, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_MergeSum)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18)
    ->ComputeStatistics("max", MaxOf);

void BM_SumAll(benchmark::State& state) {
  // P-way merge-sum, the SAG/all-gather reduction primitive: P inputs of
  // 16,384 random entries each, about one index in 20.
  const size_t p = static_cast<size_t>(state.range(0));
  const size_t nnz = 1 << 14;
  std::vector<SparseVector> inputs;
  for (size_t r = 0; r < p; ++r) {
    inputs.push_back(RandomSparse(40 * nnz, nnz, 10 + r));
  }
  size_t total = 0;
  for (const SparseVector& x : inputs) total += x.size();
  for (auto _ : state) {
    SparseVector out = SumAll(inputs);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total));
}
BENCHMARK(BM_SumAll)->Arg(3)->Arg(8)->Arg(17)
    ->ComputeStatistics("max", MaxOf);

void BM_SumAllTopkA(benchmark::State& state) {
  // TopkA's call in benchmark/'s topka_p64_fattree: each of 64 workers
  // keeps the top-4,000 of its 6,000 candidates over a 4M span, and the
  // all-gathered sets (39,545 distinct indices) are summed.
  const std::vector<SparseVector> inputs = BuiltOnce(0, [] {
    const ProfileGradientGenerator generator(4'000'000, 2024);
    TopKSelector selector;
    std::vector<SparseVector> out;
    for (int r = 0; r < 64; ++r) {
      SparseVector kept;
      selector.SelectSparse(generator.Generate(r, 1, 6'000), 4'000, &kept,
                            nullptr);
      out.push_back(std::move(kept));
    }
    return out;
  });
  size_t total = 0;
  for (const SparseVector& x : inputs) total += x.size();
  for (auto _ : state) {
    SparseVector out = SumAll(inputs);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total));
}
BENCHMARK(BM_SumAllTopkA)->ComputeStatistics("max", MaxOf);

void BM_BruckAllGatherWallTime(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  Cluster cluster(p, CostModel::Free());
  for (auto _ : state) {
    cluster.Run([&](Comm& comm) {
      BruckAllGather(comm, CommGroup::World(comm),
                     RandomSparse(1 << 16, 1 << 10,
                                  static_cast<uint64_t>(comm.rank())));
    });
  }
}
BENCHMARK(BM_BruckAllGatherWallTime)->Arg(4)->Arg(8)->Arg(14)
    ->Unit(benchmark::kMillisecond);

void BM_SparReduceScatterWallTime(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const size_t n = 1 << 18;
  Cluster cluster(p, CostModel::Free());
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(DenseGradient(n, 100 + static_cast<uint64_t>(r)));
  }
  for (auto _ : state) {
    cluster.Run([&](Comm& comm) {
      SrsOptions options;
      options.k = n / 100;
      SparReduceScatter(comm, CommGroup::World(comm),
                        grads[static_cast<size_t>(comm.rank())], options,
                        nullptr);
    });
  }
}
BENCHMARK(BM_SparReduceScatterWallTime)->Arg(4)->Arg(8)->Arg(14)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spardl

BENCHMARK_MAIN();
