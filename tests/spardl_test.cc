#include "core/spardl.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string_view>
#include <tuple>
#include <vector>

#include "baselines/registry.h"
#include "test_util.h"

namespace spardl {
namespace {

using ::spardl::testing::RandomGradient;
using ::spardl::testing::ReferenceSum;

AlgorithmConfig BaseConfig(int p, size_t n, size_t k, int d) {
  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  config.num_teams = d;
  return config;
}

// SparDL built through the registry, which validates `config` first.
std::unique_ptr<SparDL> MakeSparDL(const AlgorithmConfig& config,
                                   std::string_view name = "spardl") {
  std::unique_ptr<SparseAllReduce> algo =
      std::move(*CreateAlgorithm(name, config));
  return std::unique_ptr<SparDL>(dynamic_cast<SparDL*>(algo.release()));
}

TEST(SparDLTest, CreateResolvesAutoSagMode) {
  auto no_sag = MakeSparDL(BaseConfig(8, 100, 10, 1));
  EXPECT_FALSE(no_sag->resolved_sag().has_value());
  EXPECT_EQ(no_sag->name(), "SparDL");

  auto rsag = MakeSparDL(BaseConfig(8, 100, 10, 2));
  EXPECT_EQ(*rsag->resolved_sag(), SagMode::kRecursive);
  EXPECT_EQ(rsag->name(), "SparDL(R-SAG, d=2)");

  auto bsag = MakeSparDL(BaseConfig(12, 100, 10, 3));
  EXPECT_EQ(*bsag->resolved_sag(), SagMode::kBruck);
  EXPECT_EQ(bsag->name(), "SparDL(B-SAG, d=3)");

  AlgorithmConfig forced = BaseConfig(8, 100, 10, 2);
  forced.sag_mode = SagMode::kBruck;
  EXPECT_EQ(*MakeSparDL(forced)->resolved_sag(), SagMode::kBruck);

  // The aliases override the config's SAG variant.
  EXPECT_EQ(*MakeSparDL(BaseConfig(8, 100, 10, 2), "spardl-bsag")
                 ->resolved_sag(),
            SagMode::kBruck);
  EXPECT_EQ(*MakeSparDL(forced, "spardl-rsag")->resolved_sag(),
            SagMode::kRecursive);
}

// An alias forces the SAG variant and nothing else: the rest of the
// config (here 16-bit values and local residuals) carries through, so
// the alias reduces exactly like `spardl` with that variant set.
TEST(SparDLTest, AliasRunsLikeItsForcedSagMode) {
  const int p = 8;
  const size_t n = 400;
  const size_t k = 40;
  AlgorithmConfig config = BaseConfig(p, n, k, 2);
  config.value_bits = 16;
  config.residual_mode = ResidualMode::kLocal;
  for (const SagMode mode : {SagMode::kBruck, SagMode::kRecursive}) {
    const std::string_view alias =
        mode == SagMode::kBruck ? "spardl-bsag" : "spardl-rsag";
    AlgorithmConfig forced = config;
    forced.sag_mode = mode;
    EXPECT_EQ(MakeSparDL(config, alias)->name(),
              MakeSparDL(forced)->name());

    std::vector<std::vector<SparseVector>> via_alias;
    std::vector<std::vector<SparseVector>> via_config;
    testing::RunAlgorithm(
        p, n, 3,
        [&](int) -> std::unique_ptr<SparseAllReduce> {
          return MakeSparDL(config, alias);
        },
        nullptr, &via_alias);
    testing::RunAlgorithm(
        p, n, 3,
        [&](int) -> std::unique_ptr<SparseAllReduce> {
          return MakeSparDL(forced);
        },
        nullptr, &via_config);
    EXPECT_EQ(via_alias, via_config) << alias;
  }
}

// The core synchronous-SGD invariant: every worker ends each iteration
// with the bit-identical global gradient — for every P, every d, both SAG
// variants, several iterations deep (residual feedback included).
class SparDLConsistencySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SparDLConsistencySweep, AllWorkersIdenticalAcrossIterations) {
  const auto [p, d] = GetParam();
  const size_t n = 60u * static_cast<size_t>(p);
  const size_t k = 4u * static_cast<size_t>(p);
  std::vector<std::vector<SparseVector>> outputs;
  testing::RunAlgorithm(
      p, n, /*iterations=*/4,
      [&](int) {
        return std::move(*CreateAlgorithm("spardl", BaseConfig(p, n, k, d)));
      },
      nullptr, &outputs);
  for (size_t iter = 0; iter < outputs.size(); ++iter) {
    for (int r = 1; r < p; ++r) {
      ASSERT_EQ(outputs[iter][static_cast<size_t>(r)], outputs[iter][0])
          << "P=" << p << " d=" << d << " iter=" << iter << " rank=" << r;
    }
    EXPECT_GT(outputs[iter][0].size(), 0u);
    // Global gradient can never exceed team_size * L entries (= about k).
    EXPECT_LE(outputs[iter][0].size(), k + static_cast<size_t>(p));
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndTeams, SparDLConsistencySweep,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 1),
                      std::make_tuple(3, 1), std::make_tuple(4, 2),
                      std::make_tuple(6, 2), std::make_tuple(6, 3),
                      std::make_tuple(8, 2), std::make_tuple(8, 4),
                      std::make_tuple(12, 3), std::make_tuple(12, 6),
                      std::make_tuple(14, 7), std::make_tuple(14, 14),
                      std::make_tuple(14, 1), std::make_tuple(16, 8)));

// Cluster-wide mass conservation across iterations with GRES:
// sum over iterations of fresh-gradient mass ==
// sum over iterations of synchronised-gradient mass + residuals in store.
class SparDLConservationSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SparDLConservationSweep, GresNeverLosesMass) {
  const auto [p, d] = GetParam();
  const size_t n = 50u * static_cast<size_t>(p);
  const size_t k = 5u * static_cast<size_t>(p);
  const int iterations = 3;

  Cluster cluster(p, CostModel::Free());
  std::vector<std::unique_ptr<SparDL>> algos(static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] = MakeSparDL(BaseConfig(p, n, k, d));
  }
  double fresh_mass = 0.0;
  double synced_mass = 0.0;
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<std::vector<float>> grads(static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      grads[static_cast<size_t>(r)] = RandomGradient(
          n, 500 + static_cast<uint64_t>(iter * 100 + r));
      for (float v : grads[static_cast<size_t>(r)]) fresh_mass += v;
    }
    std::vector<SparseVector> outs(static_cast<size_t>(p));
    cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      outs[rank] = algos[rank]->Run(comm, grads[rank]);
    });
    synced_mass += outs[0].ValueSum();
  }
  double residual_mass = 0.0;
  for (const auto& algo : algos) {
    residual_mass += algo->residuals().MassSum();
  }
  EXPECT_NEAR(fresh_mass, synced_mass + residual_mass,
              1e-2 * (1.0 + std::abs(fresh_mass)))
      << "P=" << p << " d=" << d;
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndTeams, SparDLConservationSweep,
    ::testing::Values(std::make_tuple(2, 1), std::make_tuple(4, 2),
                      std::make_tuple(6, 3), std::make_tuple(8, 4),
                      std::make_tuple(12, 6), std::make_tuple(14, 7)));

// With k = n and d = 1 (or R-SAG), no selection ever discards anything, so
// SparDL must equal the exact dense all-reduce.
class SparDLExactSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SparDLExactSweep, MatchesDenseAllReduceWhenKEqualsN) {
  const auto [p, d] = GetParam();
  const size_t n = 48u * static_cast<size_t>(p);
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(RandomGradient(n, 900 + static_cast<uint64_t>(r)));
  }
  const std::vector<float> expected = ReferenceSum(grads);

  Cluster cluster(p, CostModel::Free());
  std::vector<SparseVector> outs(static_cast<size_t>(p));
  cluster.Run([&](Comm& comm) {
    const auto rank = static_cast<size_t>(comm.rank());
    auto algo = MakeSparDL(BaseConfig(p, n, n, d));
    std::vector<float> grad = grads[rank];
    outs[rank] = algo->Run(comm, grad);
  });
  std::vector<float> dense(n, 0.0f);
  outs[0].AddToDense(dense);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(dense[i], expected[i], 1e-3f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkersAndTeams, SparDLExactSweep,
                         ::testing::Values(std::make_tuple(4, 1),
                                           std::make_tuple(6, 1),
                                           std::make_tuple(8, 2),
                                           std::make_tuple(8, 4),
                                           std::make_tuple(14, 1)));

TEST(SparDLTest, RunOnSparseMatchesDensePathWithoutResiduals) {
  const int p = 6;
  const size_t n = 300;
  const size_t k = 30;
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(RandomGradient(n, 321 + static_cast<uint64_t>(r)));
  }
  AlgorithmConfig config = BaseConfig(p, n, k, 3);
  config.residual_mode = ResidualMode::kNone;

  std::vector<SparseVector> dense_out(static_cast<size_t>(p));
  std::vector<SparseVector> sparse_out(static_cast<size_t>(p));
  {
    Cluster cluster(p, CostModel::Free());
    cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      auto algo = MakeSparDL(config);
      std::vector<float> grad = grads[rank];
      dense_out[rank] = algo->Run(comm, grad);
    });
  }
  {
    Cluster cluster(p, CostModel::Free());
    cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      auto algo = MakeSparDL(config);
      sparse_out[rank] =
          algo->RunOnSparse(comm, SparseVector::FromDense(grads[rank]));
    });
  }
  EXPECT_EQ(dense_out[0], sparse_out[0]);
}

TEST(SparDLTest, BsagUnionObservable) {
  const int p = 6;
  const size_t n = 300;
  const size_t k = 60;
  std::vector<size_t> unions(static_cast<size_t>(p));
  Cluster cluster(p, CostModel::Free());
  cluster.Run([&](Comm& comm) {
    const auto rank = static_cast<size_t>(comm.rank());
    auto algo = MakeSparDL(BaseConfig(p, n, k, 3));
    std::vector<float> grad = RandomGradient(n, 42 + rank);
    algo->Run(comm, grad);
    unions[rank] = algo->last_bsag_union();
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_GT(unions[static_cast<size_t>(r)], 0u) << "rank " << r;
  }
}

}  // namespace
}  // namespace spardl
