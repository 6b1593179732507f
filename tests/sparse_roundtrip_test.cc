// Dense <-> sparse round-trip coverage beyond the unit checks in
// sparse_vector_test.cc: empty and all-zero inputs, k = n selection,
// full-vector reconstruction, and duplicate-index rejection at the
// construction boundary.

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sparse/sparse_vector.h"
#include "sparse/topk.h"
#include "test_util.h"

namespace spardl {
namespace {

TEST(SparseRoundTripTest, EmptyDenseProducesEmptySparse) {
  const std::vector<float> dense;
  const SparseVector sparse = SparseVector::FromDense(dense);
  EXPECT_TRUE(sparse.empty());
  EXPECT_EQ(sparse.WireWords(), 0u);
}

TEST(SparseRoundTripTest, AllZeroDenseProducesEmptySparse) {
  const std::vector<float> dense(64, 0.0f);
  const SparseVector sparse = SparseVector::FromDense(dense);
  EXPECT_TRUE(sparse.empty());
  // Adding the empty vector back is a no-op.
  std::vector<float> out(64, 0.0f);
  sparse.AddToDense(out);
  EXPECT_EQ(out, dense);
}

TEST(SparseRoundTripTest, DenseToSparseToDenseIsLossless) {
  std::vector<float> dense = testing::RandomGradient(512, /*seed=*/7);
  dense[0] = 0.0f;    // holes must survive the round trip
  dense[255] = 0.0f;
  dense[511] = 0.0f;
  const SparseVector sparse = SparseVector::FromDense(dense);
  std::vector<float> rebuilt(dense.size(), 0.0f);
  sparse.AddToDense(rebuilt);
  EXPECT_EQ(rebuilt, dense);
}

TEST(SparseRoundTripTest, RoundTripPreservesValueSum) {
  const std::vector<float> dense = testing::RandomGradient(256, /*seed=*/11);
  const SparseVector sparse = SparseVector::FromDense(dense);
  double dense_sum = 0.0;
  for (float v : dense) dense_sum += v;
  EXPECT_NEAR(sparse.ValueSum(), dense_sum, 1e-4);
}

TEST(SparseRoundTripTest, BaseIndexShiftsReconstruction) {
  const std::vector<float> dense = {1.0f, 0.0f, -2.0f, 3.0f};
  const SparseVector sparse = SparseVector::FromDense(dense, /*base_index=*/100);
  EXPECT_TRUE(sparse.IndicesWithin(100, 104));
  std::vector<float> wide(200, 0.0f);
  sparse.AddToDense(wide);
  EXPECT_EQ(wide[100], 1.0f);
  EXPECT_EQ(wide[102], -2.0f);
  EXPECT_EQ(wide[103], 3.0f);
  EXPECT_EQ(wide[101], 0.0f);
}

TEST(SparseRoundTripTest, TopKWithKEqualsNKeepsEveryNonZero) {
  std::vector<float> dense = testing::RandomGradient(128, /*seed=*/3);
  dense[17] = 0.0f;  // zeros carry no information and are never selected
  SparseVector kept;
  SparseVector discarded;
  TopKDense(dense, /*base_index=*/0, /*k=*/dense.size(), &kept, &discarded);
  EXPECT_TRUE(discarded.empty());
  std::vector<float> rebuilt(dense.size(), 0.0f);
  kept.AddToDense(rebuilt);
  EXPECT_EQ(rebuilt, dense);
}

TEST(SparseRoundTripTest, TopKKeptPlusDiscardedReassembleDense) {
  const std::vector<float> dense = testing::RandomGradient(256, /*seed=*/5);
  SparseVector kept;
  SparseVector discarded;
  TopKDense(dense, /*base_index=*/0, /*k=*/16, &kept, &discarded);
  EXPECT_EQ(kept.size(), 16u);
  std::vector<float> rebuilt(dense.size(), 0.0f);
  kept.AddToDense(rebuilt);
  discarded.AddToDense(rebuilt);
  EXPECT_EQ(rebuilt, dense);
}

TEST(SparseRoundTripDeathTest, ConstructorRejectsDuplicateIndices) {
  EXPECT_DEATH(SparseVector({3, 3}, {1.0f, 2.0f}), "");
}

TEST(SparseRoundTripDeathTest, PushBackRejectsNonAscendingIndex) {
#ifndef NDEBUG
  SparseVector v;
  v.PushBack(5, 1.0f);
  EXPECT_DEATH(v.PushBack(5, 2.0f), "");
#else
  GTEST_SKIP() << "PushBack ordering is a DCHECK; release builds skip it";
#endif
}

}  // namespace
}  // namespace spardl
