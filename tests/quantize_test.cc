#include "core/quantize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "core/spardl.h"
#include "test_util.h"

namespace spardl {
namespace {

SparseVector Make(std::vector<GradIndex> idx, std::vector<float> val) {
  return SparseVector(std::move(idx), std::move(val));
}

TEST(QuantizeTest, SupportedWidths) {
  EXPECT_TRUE(IsSupportedQuantization(4));
  EXPECT_TRUE(IsSupportedQuantization(8));
  EXPECT_TRUE(IsSupportedQuantization(16));
  EXPECT_TRUE(IsSupportedQuantization(32));
  EXPECT_FALSE(IsSupportedQuantization(2));
  EXPECT_FALSE(IsSupportedQuantization(12));
}

TEST(QuantizeTest, WireWordsShrinkWithBits) {
  EXPECT_EQ(QuantizedWireWords(100, 32), 200u);
  // 8-bit: 100 * (4 + 1) + 4 bytes = 504 -> 126 words.
  EXPECT_EQ(QuantizedWireWords(100, 8), 126u);
  // 4-bit: 100 * 4 index bytes + 50 packed value bytes + 4 = 454 -> 114
  // words. (A regression here once charged `bits / 8 == 0` value bytes,
  // shipping 4-bit values for free.)
  EXPECT_EQ(QuantizedWireWords(100, 4), 114u);
  EXPECT_LT(QuantizedWireWords(100, 4), QuantizedWireWords(100, 8));
  EXPECT_LT(QuantizedWireWords(100, 8), QuantizedWireWords(100, 16));
}

TEST(QuantizeTest, WireWordsWidthSweep) {
  // words = ceil((4*entries + ceil(entries*bits/8) + 4) / 4) for bits < 32;
  // bits == 32 ships raw 2-word COO entries with no scale word.
  struct Case {
    size_t entries;
    int bits;
    size_t words;
  };
  constexpr Case kCases[] = {
      {0, 4, 1},      {0, 8, 1},      {0, 16, 1},      {0, 32, 0},
      {1, 4, 3},      {1, 8, 3},      {1, 16, 3},      {1, 32, 2},
      {3, 4, 5},      {3, 8, 5},      {3, 16, 6},      {3, 32, 6},
      {7, 4, 9},      {7, 8, 10},     {7, 16, 12},     {7, 32, 14},
      {100, 4, 114},  {100, 8, 126},  {100, 16, 151},  {100, 32, 200},
      {101, 4, 115},  {101, 8, 128},  {101, 16, 153},  {101, 32, 202},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(QuantizedWireWords(c.entries, c.bits), c.words)
        << "entries=" << c.entries << " bits=" << c.bits;
  }
  // Sub-byte widths must still charge for their values: strictly more
  // than an index-plus-scale-only message.
  for (size_t entries : {1u, 7u, 101u}) {
    EXPECT_GT(QuantizedWireWords(entries, 4), (entries * 4 + 4 + 3) / 4)
        << "entries=" << entries;
  }
}

TEST(QuantizeTest, ThirtyTwoBitsIsIdentity) {
  SparseVector v = Make({1, 5}, {0.123f, -4.567f});
  const SparseVector original = v;
  SparseVector error;
  QuantizeDequantize(&v, 32, &error);
  EXPECT_EQ(v, original);
  EXPECT_TRUE(error.empty());
}

TEST(QuantizeTest, ErrorBoundedByHalfStep) {
  Rng rng(9);
  SparseVector v;
  float max_abs = 0.0f;
  for (GradIndex i = 0; i < 500; ++i) {
    const float value = static_cast<float>(rng.NextGaussian());
    v.PushBack(i * 3, value);
    max_abs = std::max(max_abs, std::fabs(value));
  }
  const SparseVector original = v;
  for (int bits : {4, 8, 16}) {
    SparseVector copy = original;
    SparseVector error;
    QuantizeDequantize(&copy, bits, &error);
    const float step =
        max_abs / static_cast<float>((1 << (bits - 1)) - 1);
    for (size_t i = 0; i < copy.size(); ++i) {
      EXPECT_NEAR(copy.value(i), original.value(i), step * 0.5f + 1e-6f)
          << "bits=" << bits;
    }
  }
}

TEST(QuantizeTest, ErrorPlusQuantizedReconstructsOriginal) {
  SparseVector v = Make({0, 1, 2, 3}, {1.0f, 0.30f, -0.72f, 0.049f});
  const SparseVector original = v;
  SparseVector error;
  QuantizeDequantize(&v, 4, &error);
  SparseVector reconstructed;
  MergeSum(v, error, &reconstructed);
  ASSERT_EQ(reconstructed.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(reconstructed.value(i), original.value(i), 1e-6f);
  }
}

TEST(QuantizeTest, EmptyAndAllZeroInputs) {
  SparseVector empty;
  QuantizeDequantize(&empty, 8);
  EXPECT_TRUE(empty.empty());
}

TEST(QuantizeTest, DeterministicAcrossCalls) {
  SparseVector a = Make({0, 1, 2}, {0.5f, -0.3f, 0.9f});
  SparseVector b = a;
  QuantizeDequantize(&a, 8);
  QuantizeDequantize(&b, 8);
  EXPECT_EQ(a, b);
}

TEST(QuantizedSparDLTest, ConfigValidation) {
  AlgorithmConfig config;
  config.n = 1000;
  config.k = 100;
  config.num_workers = 4;
  config.value_bits = 12;
  EXPECT_FALSE(CreateAlgorithm("spardl", config).ok());
  config.value_bits = 8;
  auto created = CreateAlgorithm("spardl", config);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ((*created)->name(), "SparDL+q8");
}

// Quantized SparDL must preserve the synchronous-SGD consistency invariant
// and (thanks to error feedback) cluster-wide mass conservation.
class QuantizedSparDLSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantizedSparDLSweep, ConsistentAndConservative) {
  const int bits = GetParam();
  const int p = 6;
  const size_t n = 600;
  const size_t k = 60;
  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  config.num_teams = 3;
  config.value_bits = bits;

  Cluster cluster(p, CostModel::Free());
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] =
        std::move(*CreateAlgorithm("spardl", config));
  }
  double fresh_mass = 0.0;
  double synced_mass = 0.0;
  for (int iter = 0; iter < 3; ++iter) {
    std::vector<std::vector<float>> grads(static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      grads[static_cast<size_t>(r)] = testing::RandomGradient(
          n, 40 + static_cast<uint64_t>(iter * 10 + r));
      for (float v : grads[static_cast<size_t>(r)]) fresh_mass += v;
    }
    std::vector<SparseVector> outs(static_cast<size_t>(p));
    cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      outs[rank] = algos[rank]->Run(comm, grads[rank]);
    });
    for (int r = 1; r < p; ++r) {
      ASSERT_EQ(outs[static_cast<size_t>(r)], outs[0])
          << "bits=" << bits << " iter=" << iter;
    }
    synced_mass += outs[0].ValueSum();
  }
  double residual_mass = 0.0;
  for (const auto& algo : algos) {
    residual_mass +=
        dynamic_cast<const SparDL&>(*algo).residuals().MassSum();
  }
  EXPECT_NEAR(fresh_mass, synced_mass + residual_mass,
              2e-2 * (1.0 + std::abs(fresh_mass)))
      << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantizedSparDLSweep,
                         ::testing::Values(4, 8, 16, 32));

TEST(QuantizedSparDLTest, ReducesWireWords) {
  const int p = 8;
  const size_t n = 8000;
  const size_t k = 800;
  uint64_t words[2];
  int slot = 0;
  for (int bits : {32, 8}) {
    AlgorithmConfig config;
    config.n = n;
    config.k = k;
    config.num_workers = p;
    config.value_bits = bits;
    config.residual_mode = ResidualMode::kNone;
    Cluster cluster(p, CostModel::Ethernet());
    std::vector<std::unique_ptr<SparseAllReduce>> algos(
        static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      algos[static_cast<size_t>(r)] =
          std::move(*CreateAlgorithm("spardl", config));
    }
    cluster.Run([&](Comm& comm) {
      std::vector<float> grad = testing::RandomGradient(
          n, 7 + static_cast<uint64_t>(comm.rank()));
      algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
    });
    words[slot++] = cluster.MaxWordsReceived();
  }
  // 8-bit entries are 1.25 words instead of 2: expect a ~1.6x drop.
  EXPECT_LT(words[1], words[0] * 3 / 4);
}

}  // namespace
}  // namespace spardl
