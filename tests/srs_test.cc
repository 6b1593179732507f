#include "core/spar_reduce_scatter.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "sparse/block_partition.h"
#include "sparse/topk.h"
#include "test_util.h"

namespace spardl {
namespace {

using ::spardl::testing::RandomGradient;
using ::spardl::testing::ReferenceSum;
using ::spardl::testing::RunOnCluster;

struct SrsRun {
  std::vector<SparseVector> blocks;       // per rank
  std::vector<double> residual_mass;      // per rank
};

SrsRun RunSrs(int p, size_t n, size_t k, bool lazy,
              ResidualMode mode = ResidualMode::kGlobal,
              uint64_t seed = 42) {
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(RandomGradient(n, seed + static_cast<uint64_t>(r)));
  }
  SrsRun run;
  run.blocks.resize(static_cast<size_t>(p));
  run.residual_mass.resize(static_cast<size_t>(p));
  Cluster cluster(p, CostModel::Free());
  cluster.Run([&](Comm& comm) {
    const auto rank = static_cast<size_t>(comm.rank());
    ResidualStore residuals(n, mode);
    SrsOptions options;
    options.k = k;
    options.lazy_sparsify = lazy;
    run.blocks[rank] = SparReduceScatter(
        comm, CommGroup::World(comm), grads[rank], options, &residuals);
    residuals.FinishIteration(run.blocks[rank]);
    run.residual_mass[rank] = residuals.MassSum();
  });
  return run;
}

class SrsSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SrsSweep, BlocksLandInOwnRangeWithinBudget) {
  const auto [p, lazy] = GetParam();
  const size_t n = 640;
  const size_t k = 64;
  const BlockPartition partition(n, p);
  const size_t budget = partition.PerBlockBudget(k);
  SrsRun run = RunSrs(p, n, k, lazy);
  for (int r = 0; r < p; ++r) {
    const SparseVector& block = run.blocks[static_cast<size_t>(r)];
    EXPECT_LE(block.size(), budget);
    EXPECT_TRUE(block.IndicesWithin(partition.BlockStart(r),
                                    partition.BlockEnd(r)))
        << "P=" << p << " rank=" << r;
  }
}

// Mass conservation with GRES: sum of inputs == sum of final blocks + sum
// of all residuals. This is the load-bearing invariant of global residual
// collection — nothing a worker contributed ever vanishes.
TEST_P(SrsSweep, GlobalResidualsConserveMass) {
  const auto [p, lazy] = GetParam();
  const size_t n = 640;
  const size_t k = 48;
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(RandomGradient(n, 7 + static_cast<uint64_t>(r)));
  }
  double input_mass = 0.0;
  for (const auto& g : grads) {
    for (float v : g) input_mass += v;
  }
  SrsRun run = RunSrs(p, n, k, lazy, ResidualMode::kGlobal, 7);
  double output_mass = 0.0;
  for (const auto& block : run.blocks) output_mass += block.ValueSum();
  for (double m : run.residual_mass) output_mass += m;
  EXPECT_NEAR(output_mass, input_mass, 1e-2)
      << "P=" << p << " lazy=" << lazy;
}

// k = n makes every per-block budget equal to the block width, so nothing
// is ever discarded and SRS must equal the exact dense reduce-scatter.
TEST_P(SrsSweep, ExactWhenKEqualsN) {
  const auto [p, lazy] = GetParam();
  const size_t n = 320;
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(RandomGradient(n, 19 + static_cast<uint64_t>(r)));
  }
  const std::vector<float> expected = ReferenceSum(grads);
  SrsRun run = RunSrs(p, n, /*k=*/n, lazy, ResidualMode::kGlobal, 19);
  const BlockPartition partition(n, p);
  for (int r = 0; r < p; ++r) {
    std::vector<float> dense(n, 0.0f);
    run.blocks[static_cast<size_t>(r)].AddToDense(dense);
    for (GradIndex i = partition.BlockStart(r); i < partition.BlockEnd(r);
         ++i) {
      EXPECT_NEAR(dense[i], expected[i], 1e-4f)
          << "P=" << p << " rank=" << r << " i=" << i;
    }
    EXPECT_NEAR(run.residual_mass[static_cast<size_t>(r)], 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndModes, SrsSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 14),
                       ::testing::Bool()));

TEST(SrsTest, LatencyIsCeilLog2Rounds) {
  for (int p : {2, 3, 6, 8, 14}) {
    Cluster cluster(p, CostModel::Ethernet());
    std::vector<std::vector<float>> grads;
    for (int r = 0; r < p; ++r) {
      grads.push_back(RandomGradient(512, static_cast<uint64_t>(r)));
    }
    cluster.Run([&](Comm& comm) {
      SrsOptions options;
      options.k = 64;
      SparReduceScatter(comm, CommGroup::World(comm),
                        grads[static_cast<size_t>(comm.rank())], options,
                        nullptr);
    });
    EXPECT_EQ(cluster.MaxMessagesReceived(),
              static_cast<uint64_t>(SrsBagLayout::NumSteps(p)))
        << "P=" << p;
  }
}

// Each worker sends P-1 blocks of <= 2*budget words: the Table-I SRS
// bandwidth term 2k(P-1)/P.
TEST(SrsTest, BandwidthMatchesTableOne) {
  const int p = 8;
  const size_t n = 4096;
  const size_t k = 512;  // budget = 64 per block
  Cluster cluster(p, CostModel::Ethernet());
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(RandomGradient(n, 100 + static_cast<uint64_t>(r)));
  }
  cluster.Run([&](Comm& comm) {
    SrsOptions options;
    options.k = k;
    SparReduceScatter(comm, CommGroup::World(comm),
                      grads[static_cast<size_t>(comm.rank())], options,
                      nullptr);
  });
  const uint64_t bound = 2 * (k / p) * (p - 1);  // words
  for (int r = 0; r < p; ++r) {
    EXPECT_LE(cluster.comm(r).stats().words_received, bound);
    // Dense random gradients fill every block, so the bound is tight.
    EXPECT_GE(cluster.comm(r).stats().words_received, bound * 9 / 10);
  }
}

// Runs both entry points on `grads` (one per rank) and expects the same
// block and the same local discards on every rank. The dense entry point
// selects every block of the dense gradient and never splits a candidate
// list, so it is an independent reference for the sparse one's split.
void ExpectSparseEntryPointMatchesDense(
    const std::vector<std::vector<float>>& grads, size_t k) {
  const int p = static_cast<int>(grads.size());
  const size_t n = grads[0].size();
  std::vector<std::vector<float>> dense_residuals(grads.size());
  std::vector<std::vector<float>> sparse_residuals(grads.size());
  auto run = [&](bool sparse, std::vector<std::vector<float>>* residuals) {
    return RunOnCluster<SparseVector>(p, [&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      ResidualStore store(n, ResidualMode::kLocal);
      SrsOptions options;
      options.k = k;
      SparseVector block =
          sparse ? SparReduceScatterOnSparse(
                       comm, CommGroup::World(comm),
                       SparseVector::FromDense(grads[rank]), n, options,
                       &store)
                 : SparReduceScatter(comm, CommGroup::World(comm),
                                     grads[rank], options, &store);
      (*residuals)[rank].assign(store.dense().begin(), store.dense().end());
      return block;
    });
  };
  const std::vector<SparseVector> dense_run = run(false, &dense_residuals);
  const std::vector<SparseVector> sparse_run = run(true, &sparse_residuals);
  for (int r = 0; r < p; ++r) {
    const auto rank = static_cast<size_t>(r);
    EXPECT_EQ(dense_run[rank], sparse_run[rank]) << "rank " << r;
    EXPECT_EQ(dense_residuals[rank], sparse_residuals[rank]) << "rank " << r;
  }
}

// Where a rank's non-zeros may sit, relative to its own block.
enum class Support { kOwnBlockEmpty, kBelowOwnBlock, kOneBlock, kNone };

// About 40% of the entries of the blocks `support` allows, 0 elsewhere.
std::vector<float> MostlyZeroGradient(Support support, int rank, int p,
                                      size_t n, uint64_t seed) {
  const BlockPartition partition(n, p);
  Rng rng(seed);
  std::vector<float> grad(n, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    const int b = partition.BlockOf(static_cast<GradIndex>(i));
    bool allowed = false;
    switch (support) {
      case Support::kOwnBlockEmpty:
        allowed = b != rank;
        break;
      case Support::kBelowOwnBlock:  // the split wraps to index 0
        allowed = b < rank;
        break;
      case Support::kOneBlock:
        allowed = b == (2 * rank + 1) % p;
        break;
      case Support::kNone:
        break;
    }
    if (allowed && rng.NextDouble() < 0.4) {
      grad[i] = static_cast<float>(rng.NextGaussian());
    }
  }
  return grad;
}

TEST(SrsTest, SparseEntryPointMatchesDense) {
  {
    const int p = 6;
    std::vector<std::vector<float>> grads;
    for (int r = 0; r < p; ++r) {
      grads.push_back(RandomGradient(600, 55 + static_cast<uint64_t>(r)));
    }
    ExpectSparseEntryPointMatchesDense(grads, /*k=*/60);
  }
  // n = 20P + 7 leaves the last block short; at P = 33 its width of 21
  // leaves block 32 empty, so rank 32's own block starts at n.
  for (int p : {5, 12, 33}) {
    const size_t n = 20 * static_cast<size_t>(p) + 7;
    for (Support support : {Support::kOwnBlockEmpty, Support::kBelowOwnBlock,
                            Support::kOneBlock, Support::kNone}) {
      SCOPED_TRACE(::testing::Message()
                   << "P=" << p << " support=" << static_cast<int>(support));
      std::vector<std::vector<float>> grads;
      for (int r = 0; r < p; ++r) {
        grads.push_back(MostlyZeroGradient(
            support, r, p, n, 1000 * static_cast<uint64_t>(p) +
                                  static_cast<uint64_t>(r)));
      }
      // Three entries per block: most non-empty blocks are cut.
      ExpectSparseEntryPointMatchesDense(grads, 3 * static_cast<size_t>(p));
    }
  }
}

// A quantized block pays its scale word even when it carries no entry. All
// zero gradients leave every block empty, so each worker sends l messages
// whose bags hold P - 1 blocks in all: P - 1 scale words when quantized,
// nothing at 32 bits.
TEST(SrsTest, QuantizedEmptyBlocksPayTheirScaleWord) {
  for (int p : {2, 5, 8, 12}) {
    for (int bits : {4, 8, 16, 32}) {
      const std::vector<float> zeros(96, 0.0f);
      Cluster cluster(p, CostModel::Ethernet());
      cluster.Run([&](Comm& comm) {
        SrsOptions options;
        options.k = 24;
        options.value_bits = bits;
        const SparseVector block = SparReduceScatter(
            comm, CommGroup::World(comm), zeros, options, nullptr);
        EXPECT_TRUE(block.empty());
      });
      const uint64_t words = bits == 32 ? 0 : static_cast<uint64_t>(p - 1);
      for (int r = 0; r < p; ++r) {
        const CommStats& stats = cluster.comm(r).stats();
        EXPECT_EQ(stats.messages_sent,
                  static_cast<uint64_t>(SrsBagLayout::NumSteps(p)))
            << "P=" << p << " bits=" << bits << " rank=" << r;
        EXPECT_EQ(stats.words_sent, words)
            << "P=" << p << " bits=" << bits << " rank=" << r;
      }
    }
  }
}

// The lazy "Optimization for SRS" must not change message sizes (wire
// volume), only the number of top-k passes.
TEST(SrsTest, LazyAndEagerShipSameVolume) {
  const int p = 7;
  const size_t n = 700;
  const size_t k = 70;
  uint64_t words[2];
  for (bool lazy : {false, true}) {
    Cluster cluster(p, CostModel::Ethernet());
    std::vector<std::vector<float>> grads;
    for (int r = 0; r < p; ++r) {
      grads.push_back(RandomGradient(n, 21 + static_cast<uint64_t>(r)));
    }
    cluster.Run([&](Comm& comm) {
      SrsOptions options;
      options.k = k;
      options.lazy_sparsify = lazy;
      SparReduceScatter(comm, CommGroup::World(comm),
                        grads[static_cast<size_t>(comm.rank())], options,
                        nullptr);
    });
    words[lazy ? 1 : 0] = cluster.TotalStats().words_received;
  }
  EXPECT_EQ(words[0], words[1]);
}

}  // namespace
}  // namespace spardl
