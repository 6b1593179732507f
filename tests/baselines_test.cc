#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/gtopk.h"
#include "baselines/oktopk.h"
#include "baselines/registry.h"
#include "baselines/topk_allgather.h"
#include "baselines/topk_dsa.h"
#include "test_util.h"

namespace spardl {
namespace {

using ::spardl::testing::RandomGradient;
using ::spardl::testing::ReferenceSum;

AlgorithmConfig MakeConfig(int p, size_t n, size_t k) {
  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  return config;
}

// Consistency: every method must leave all workers with the identical
// global gradient, across several residual-carrying iterations.
class BaselineConsistencySweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(BaselineConsistencySweep, AllWorkersIdentical) {
  const auto [name, p] = GetParam();
  const size_t n = 64u * static_cast<size_t>(p);
  const size_t k = 6u * static_cast<size_t>(p);
  std::vector<std::vector<SparseVector>> outputs;
  testing::RunAlgorithm(
      p, n, /*iterations=*/4,
      [&](int) {
        return std::move(*CreateAlgorithm(name, MakeConfig(p, n, k)));
      },
      nullptr, &outputs);
  for (size_t iter = 0; iter < outputs.size(); ++iter) {
    for (int r = 1; r < p; ++r) {
      ASSERT_EQ(outputs[iter][static_cast<size_t>(r)], outputs[iter][0])
          << name << " P=" << p << " iter=" << iter << " rank=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndWorkers, BaselineConsistencySweep,
    ::testing::Combine(::testing::Values(std::string("topka"),
                                         std::string("topkdsa"),
                                         std::string("gtopk"),
                                         std::string("oktopk"),
                                         std::string("dense")),
                       ::testing::Values(1, 2, 3, 4, 6, 8, 14)));

// With k = n nothing is ever dropped and every method must reproduce the
// exact dense sum.
class BaselineExactSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(BaselineExactSweep, MatchesDenseSumWhenKEqualsN) {
  const auto [name, p] = GetParam();
  const size_t n = 40u * static_cast<size_t>(p);
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(RandomGradient(n, 77 + static_cast<uint64_t>(r)));
  }
  const std::vector<float> expected = ReferenceSum(grads);

  Cluster cluster(p, CostModel::Free());
  std::vector<SparseVector> outs(static_cast<size_t>(p));
  cluster.Run([&](Comm& comm) {
    const auto rank = static_cast<size_t>(comm.rank());
    auto algo = std::move(*CreateAlgorithm(name, MakeConfig(p, n, n)));
    std::vector<float> grad = grads[rank];
    outs[rank] = algo->Run(comm, grad);
  });
  std::vector<float> dense(n, 0.0f);
  outs[0].AddToDense(dense);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(dense[i], expected[i], 1e-3f) << name << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndWorkers, BaselineExactSweep,
    ::testing::Combine(::testing::Values(std::string("topka"),
                                         std::string("topkdsa"),
                                         std::string("gtopk"),
                                         std::string("oktopk"),
                                         std::string("dense")),
                       ::testing::Values(2, 4, 7, 8)));

TEST(TopkATest, BandwidthGrowsLinearlyInP) {
  // Table I: TopkA receives 2(P-1)k words per worker.
  const size_t n = 1024;
  const size_t k = 32;
  for (int p : {4, 8}) {
    Cluster cluster(p, CostModel::Ethernet());
    cluster.Run([&](Comm& comm) {
      auto algo =
          std::move(*CreateAlgorithm("topka", MakeConfig(p, n, k)));
      std::vector<float> grad =
          RandomGradient(n, static_cast<uint64_t>(comm.rank()));
      algo->Run(comm, grad);
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(cluster.comm(r).stats().words_received,
                static_cast<uint64_t>(2 * k * (static_cast<size_t>(p) - 1)))
          << "P=" << p;
    }
  }
}

TEST(TopkDsaTest, DirectSendPhaseCostsLinearLatency) {
  const int p = 8;
  const size_t n = 1024;
  Cluster cluster(p, CostModel::Ethernet());
  cluster.Run([&](Comm& comm) {
    auto algo =
        std::move(*CreateAlgorithm("topkdsa", MakeConfig(p, n, 64)));
    std::vector<float> grad =
        RandomGradient(n, static_cast<uint64_t>(comm.rank()));
    algo->Run(comm, grad);
  });
  // P-1 direct receives + ceil(log2 P) all-gather receives.
  EXPECT_EQ(cluster.MaxMessagesReceived(), static_cast<uint64_t>(p - 1 + 3));
}

TEST(TopkDsaTest, DenseSwitchCapsAllGatherWords) {
  // Force heavy accumulation: k = n/2 on few workers makes region unions
  // denser than their width, so the dense encoding must cap the cost.
  const int p = 4;
  const size_t n = 256;
  const size_t k = 128;
  Cluster cluster(p, CostModel::Ethernet());
  cluster.Run([&](Comm& comm) {
    auto algo = std::move(*CreateAlgorithm("topkdsa", MakeConfig(p, n, k)));
    std::vector<float> grad =
        RandomGradient(n, 5 + static_cast<uint64_t>(comm.rank()));
    algo->Run(comm, grad);
  });
  // All-gather words are capped at (P-1)/P * n dense words by the dense
  // switch; the direct-send phase adds at most 2k COO words per sender.
  for (int r = 0; r < p; ++r) {
    EXPECT_LE(cluster.comm(r).stats().words_received,
              static_cast<uint64_t>((p - 1) * (n / p) +
                                    2 * k * static_cast<size_t>(p - 1)));
  }
}

TEST(GTopkTest, GlobalGradientHasAtMostKEntries) {
  // Power-of-two and folded non-power-of-two worker counts alike.
  for (int p : {8, 6}) {
    const size_t n = 512;
    const size_t k = 32;
    auto outs = testing::RunAlgorithm(p, n, 2, [&](int) {
      return std::move(*CreateAlgorithm("gtopk", MakeConfig(p, n, k)));
    });
    EXPECT_LE(outs[0].size(), k) << "P=" << p;
    EXPECT_GT(outs[0].size(), 0u) << "P=" << p;
  }
}

TEST(GTopkTest, FoldAddsOneExchangeForExtras) {
  // P = 6 folds ranks 4 and 5 into ranks 0 and 1: the tree base is 4, so
  // rank 5 sends once into the fold and receives the result once back.
  const int p = 6;
  const size_t n = 256;
  Cluster cluster(p, CostModel::Ethernet());
  cluster.Run([&](Comm& comm) {
    auto algo = std::move(*CreateAlgorithm("gtopk", MakeConfig(p, n, 16)));
    std::vector<float> grad =
        RandomGradient(n, static_cast<uint64_t>(comm.rank()));
    algo->Run(comm, grad);
  });
  for (int r = 4; r < 6; ++r) {
    EXPECT_EQ(cluster.comm(r).stats().messages_sent, 1u) << "rank " << r;
    EXPECT_EQ(cluster.comm(r).stats().messages_received, 1u) << "rank " << r;
  }
}

TEST(OkTopkTest, ThresholdPruningCountVaries) {
  const int p = 4;
  const size_t n = 2048;
  const size_t k = 64;
  Cluster cluster(p, CostModel::Free());
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] =
        std::move(*CreateAlgorithm("oktopk", MakeConfig(p, n, k)));
  }
  bool saw_non_exact_count = false;
  for (int iter = 0; iter < 6; ++iter) {
    std::vector<std::vector<float>> grads(static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      grads[static_cast<size_t>(r)] = RandomGradient(
          n, 1000 + static_cast<uint64_t>(iter * 10 + r));
    }
    cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      algos[rank]->Run(comm, grads[rank]);
    });
    for (int r = 0; r < p; ++r) {
      auto* oktopk = dynamic_cast<OkTopk*>(algos[static_cast<size_t>(r)].get());
      ASSERT_NE(oktopk, nullptr);
      if (iter > 0 && oktopk->last_local_count() != k) {
        saw_non_exact_count = true;
      }
    }
  }
  // Threshold pruning is inexact by design — that is the paper's point.
  EXPECT_TRUE(saw_non_exact_count);
}

TEST(OkTopkTest, RebalanceMovesBoundariesUnderSkew) {
  const int p = 4;
  const size_t n = 4000;
  const size_t k = 80;
  Cluster cluster(p, CostModel::Free());
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] =
        std::move(*CreateAlgorithm("oktopk", MakeConfig(p, n, k)));
  }
  auto* oktopk = dynamic_cast<OkTopk*>(algos[0].get());
  ASSERT_NE(oktopk, nullptr);
  const std::vector<GradIndex> uniform = oktopk->boundaries();
  // The paper's period: the regions keep their uniform start until the
  // end of the 64th iteration, are recut there, and one more iteration
  // runs on the new regions.
  EXPECT_EQ(OkTopk::kRebalancePeriod, 64);
  for (int iter = 0; iter <= OkTopk::kRebalancePeriod; ++iter) {
    ASSERT_EQ(oktopk->boundaries() == uniform,
              iter < OkTopk::kRebalancePeriod)
        << "before iteration " << iter;
    // Heavily skewed gradients: all the big magnitudes live in the first
    // 10% of the index space.
    std::vector<std::vector<float>> grads(
        static_cast<size_t>(p), std::vector<float>(n, 0.0f));
    Rng rng(3000 + static_cast<uint64_t>(iter));
    for (int r = 0; r < p; ++r) {
      for (size_t i = 0; i < n; ++i) {
        const float scale = i < n / 10 ? 1.0f : 1e-4f;
        grads[static_cast<size_t>(r)][i] =
            scale * static_cast<float>(rng.NextGaussian());
      }
    }
    cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      algos[rank]->Run(comm, grads[rank]);
    });
  }
  // After rebalancing, the first cut must have moved into the hot 10%.
  EXPECT_LT(oktopk->boundaries()[1], static_cast<GradIndex>(n / 4));
}

TEST(RegistryTest, CreatesEveryRegisteredName) {
  for (const std::string& name : AlgorithmNames()) {
    const int p = 6;  // non-power-of-two: every method must construct
    auto result = CreateAlgorithm(name, MakeConfig(p, 256, 16));
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_FALSE((*result)->name().empty());
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto result = CreateAlgorithm("nccl", MakeConfig(4, 256, 16));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, NaturalResidualModes) {
  const AlgorithmConfig config = MakeConfig(4, 256, 16);
  auto topka = std::move(*CreateAlgorithm("topka", config));
  EXPECT_EQ(dynamic_cast<TopkAllGather*>(topka.get())->residuals().mode(),
            ResidualMode::kLocal);
  auto gtopk = std::move(*CreateAlgorithm("gtopk", config));
  EXPECT_EQ(dynamic_cast<GTopk*>(gtopk.get())->residuals().mode(),
            ResidualMode::kPartial);
  auto oktopk = std::move(*CreateAlgorithm("oktopk", config));
  EXPECT_EQ(dynamic_cast<OkTopk*>(oktopk.get())->residuals().mode(),
            ResidualMode::kPartial);
}

TEST(RegistryTest, ResidualModeOverride) {
  AlgorithmConfig config = MakeConfig(4, 256, 16);
  config.residual_mode = ResidualMode::kGlobal;
  auto topka = std::move(*CreateAlgorithm("topka", config));
  EXPECT_EQ(dynamic_cast<TopkAllGather*>(topka.get())->residuals().mode(),
            ResidualMode::kGlobal);
}

}  // namespace
}  // namespace spardl
