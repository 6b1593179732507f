#include "sparse/sparse_vector.h"

#include <gtest/gtest.h>

#include <vector>

#include "sparse/part_list.h"

namespace spardl {
namespace {

SparseVector Make(std::vector<GradIndex> idx, std::vector<float> val) {
  return SparseVector(std::move(idx), std::move(val));
}

TEST(SparseVectorTest, DefaultIsEmpty) {
  SparseVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.WireWords(), 0u);
}

TEST(SparseVectorTest, FromDenseSkipsZeros) {
  const std::vector<float> dense = {0.0f, 1.5f, 0.0f, -2.0f, 0.0f};
  SparseVector v = SparseVector::FromDense(dense);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.index(0), 1u);
  EXPECT_FLOAT_EQ(v.value(0), 1.5f);
  EXPECT_EQ(v.index(1), 3u);
  EXPECT_FLOAT_EQ(v.value(1), -2.0f);
}

TEST(SparseVectorTest, FromDenseAppliesBaseIndex) {
  const std::vector<float> dense = {1.0f, 0.0f, 2.0f};
  SparseVector v = SparseVector::FromDense(dense, 100);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.index(0), 100u);
  EXPECT_EQ(v.index(1), 102u);
}

TEST(SparseVectorTest, ConstructorRejectsUnsortedIndices) {
  EXPECT_DEATH(Make({3, 1}, {1.0f, 2.0f}), "ascending");
}

TEST(SparseVectorTest, ConstructorRejectsDuplicateIndices) {
  EXPECT_DEATH(Make({2, 2}, {1.0f, 2.0f}), "ascending");
}

TEST(SparseVectorTest, ConstructorRejectsLengthMismatch) {
  EXPECT_DEATH(SparseVector({1, 2}, {1.0f}), "");
}

// The boundary CHECK is a plain CHECK (not DCHECK), so these fire in
// NDEBUG/RelWithDebInfo builds too.
TEST(SparseVectorTest, AddToDenseRejectsOutOfRangeIndices) {
  SparseVector v = Make({1, 5}, {1.0f, 2.0f});
  std::vector<float> dense(5, 0.0f);
  EXPECT_DEATH(v.AddToDense(dense), "");
}

TEST(SparseVectorTest, WireWordsIsTwoPerEntry) {
  SparseVector v = Make({1, 5, 9}, {1.0f, 2.0f, 3.0f});
  EXPECT_EQ(v.WireWords(), 6u);
}

TEST(SparseVectorTest, ValueSum) {
  SparseVector v = Make({0, 1, 2}, {1.0f, -2.5f, 3.0f});
  EXPECT_DOUBLE_EQ(v.ValueSum(), 1.5);
}

TEST(SparseVectorTest, IndicesWithin) {
  SparseVector v = Make({5, 9}, {1.0f, 2.0f});
  EXPECT_TRUE(v.IndicesWithin(5, 10));
  EXPECT_FALSE(v.IndicesWithin(6, 10));
  EXPECT_FALSE(v.IndicesWithin(5, 9));
  EXPECT_TRUE(SparseVector().IndicesWithin(0, 0));
}

TEST(SparseVectorTest, AddToDenseAccumulates) {
  std::vector<float> dense = {1.0f, 1.0f, 1.0f};
  Make({0, 2}, {0.5f, -1.0f}).AddToDense(dense);
  EXPECT_FLOAT_EQ(dense[0], 1.5f);
  EXPECT_FLOAT_EQ(dense[1], 1.0f);
  EXPECT_FLOAT_EQ(dense[2], 0.0f);
}

TEST(SparseVectorTest, ExtractRangeSelectsHalfOpenInterval) {
  SparseVector v = Make({2, 4, 6, 8}, {1.0f, 2.0f, 3.0f, 4.0f});
  SparseVector out;
  v.ExtractRange(4, 8, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.index(0), 4u);
  EXPECT_EQ(out.index(1), 6u);
}

TEST(SparseVectorTest, ExtractRangeEmptyAndFull) {
  SparseVector v = Make({2, 4}, {1.0f, 2.0f});
  SparseVector out;
  v.ExtractRange(5, 5, &out);
  EXPECT_TRUE(out.empty());
  v.ExtractRange(0, 100, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(SparseVectorTest, AppendSpanAppendsAboveCurrentLast) {
  SparseVector v = Make({1, 4}, {1.0f, 2.0f});
  const std::vector<GradIndex> idx = {7, 9};
  const std::vector<float> val = {3.0f, 4.0f};
  v.AppendSpan(idx, val);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.index(2), 7u);
  EXPECT_FLOAT_EQ(v.value(3), 4.0f);
}

TEST(SparseVectorTest, AppendSpanEmptyIsNoOp) {
  SparseVector v = Make({1}, {1.0f});
  v.AppendSpan({}, {});
  EXPECT_EQ(v.size(), 1u);
  SparseVector empty;
  empty.AppendSpan({}, {});
  EXPECT_TRUE(empty.empty());
}

TEST(SparseVectorTest, AppendSpanOntoEmptyVector) {
  SparseVector v;
  const std::vector<GradIndex> idx = {0, 2};
  const std::vector<float> val = {1.0f, 2.0f};
  v.AppendSpan(idx, val);
  EXPECT_EQ(v.size(), 2u);
}

// The boundary CHECK survives NDEBUG: a span starting at or below the
// current last index dies in every build type.
TEST(SparseVectorTest, AppendSpanRejectsOverlappingBoundary) {
  SparseVector v = Make({5}, {1.0f});
  const std::vector<GradIndex> idx = {5};
  const std::vector<float> val = {2.0f};
  EXPECT_DEATH(v.AppendSpan(idx, val), "");
}

TEST(SparseVectorTest, AppendSpanRejectsMismatchedLengths) {
  SparseVector v;
  const std::vector<GradIndex> idx = {1, 2};
  const std::vector<float> val = {1.0f};
  EXPECT_DEATH(v.AppendSpan(idx, val), "");
}

// ExtractRange appends through AppendSpan, so its documented "out must end
// below lo" contract is now boundary-CHECKed in release builds too.
TEST(SparseVectorTest, ExtractRangeRejectsOutEndingAboveLo) {
  SparseVector v = Make({2, 4}, {1.0f, 2.0f});
  SparseVector out = Make({3}, {9.0f});
  EXPECT_DEATH(v.ExtractRange(2, 5, &out), "");
}

TEST(MergeSumTest, DisjointUnion) {
  SparseVector out;
  MergeSum(Make({1, 3}, {1.0f, 3.0f}), Make({2, 4}, {2.0f, 4.0f}), &out);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out.index(i), i + 1);
    EXPECT_FLOAT_EQ(out.value(i), static_cast<float>(i + 1));
  }
}

TEST(MergeSumTest, OverlappingIndicesSum) {
  SparseVector out;
  MergeSum(Make({1, 2}, {1.0f, 1.0f}), Make({2, 3}, {2.0f, 2.0f}), &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FLOAT_EQ(out.value(1), 3.0f);  // index 2 overlapped
}

TEST(MergeSumTest, EmptyOperands) {
  SparseVector out;
  MergeSum(SparseVector(), Make({1}, {1.0f}), &out);
  EXPECT_EQ(out.size(), 1u);
  MergeSum(Make({1}, {1.0f}), SparseVector(), &out);
  EXPECT_EQ(out.size(), 1u);
  MergeSum(SparseVector(), SparseVector(), &out);
  EXPECT_TRUE(out.empty());
}

TEST(MergeSumTest, InPlaceAccumulation) {
  SparseVector acc = Make({1}, {1.0f});
  SparseVector scratch;
  MergeSumInPlace(&acc, Make({1, 2}, {1.0f, 2.0f}), &scratch);
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_FLOAT_EQ(acc.value(0), 2.0f);
}

TEST(MergeSumTest, SumAllIsLeftToRight) {
  std::vector<SparseVector> inputs = {Make({1}, {1.0f}), Make({1}, {2.0f}),
                                      Make({2}, {4.0f})};
  SparseVector sum = SumAll(inputs);
  ASSERT_EQ(sum.size(), 2u);
  EXPECT_FLOAT_EQ(sum.value(0), 3.0f);
  EXPECT_FLOAT_EQ(sum.value(1), 4.0f);
}

TEST(ConcatDisjointTest, PreservesOrder) {
  std::vector<SparseVector> parts = {Make({0, 1}, {1.0f, 2.0f}),
                                     Make({5, 6}, {3.0f, 4.0f})};
  SparseVector out = ConcatDisjoint(parts);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.index(3), 6u);
  const std::vector<const SparseVector*> pointers = {&parts[0], &parts[1]};
  EXPECT_EQ(ConcatDisjoint(pointers), out);
}

TEST(ConcatDisjointTest, SkipsEmptyParts) {
  std::vector<SparseVector> parts = {SparseVector(), Make({3}, {1.0f}),
                                     SparseVector()};
  EXPECT_EQ(ConcatDisjoint(parts).size(), 1u);
}

TEST(ConcatDisjointTest, DiesOnInterleavedRanges) {
  std::vector<SparseVector> parts = {Make({5}, {1.0f}), Make({3}, {1.0f})};
  EXPECT_DEATH(ConcatDisjoint(parts), "");
}

// Joins and prefixes list parts in order and never copy one: every list
// that lists a part lists the same object.
TEST(PartListTest, ListsInOrderAndSharesParts) {
  const auto addresses = [](const PartList& list) {
    std::vector<const SparseVector*> out;
    list.ForEach([&out](const SparseVector& part) { out.push_back(&part); });
    return out;
  };
  const PartList a(Make({1}, {1.0f}));
  const PartList b(Make({2}, {2.0f}));
  const PartList c(Make({3}, {3.0f}));
  const PartList bc(b, c);
  const PartList abc(a, bc);
  ASSERT_EQ(abc.size(), 3u);
  const std::vector<const SparseVector*> parts = addresses(abc);
  EXPECT_EQ(*parts[0], Make({1}, {1.0f}));
  EXPECT_EQ(*parts[2], Make({3}, {3.0f}));
  EXPECT_EQ(parts[0], addresses(a)[0]);
  EXPECT_EQ(parts[1], addresses(b)[0]);
  // A prefix that ends inside the tail list.
  EXPECT_EQ(addresses(abc.Prefix(2)),
            (std::vector<const SparseVector*>{parts[0], parts[1]}));
  EXPECT_EQ(addresses(PartList(abc.Prefix(1), abc)),
            (std::vector<const SparseVector*>{parts[0], parts[0], parts[1],
                                              parts[2]}));
  EXPECT_EQ(abc.Prefix(0).size(), 0u);
  EXPECT_EQ(PartList(PartList(), PartList()).size(), 0u);
}

}  // namespace
}  // namespace spardl
