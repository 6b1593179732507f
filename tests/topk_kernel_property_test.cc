// Property suite for the compute kernels: the radix-select selectors and
// the windowed dense-accumulator SumAll must be BIT-IDENTICAL to the
// previous reference implementations (candidate-materialising nth_element
// selection; pairwise left-to-right MergeSum accumulation) on every input,
// including adversarial ones — heavy magnitude ties, all-equal values,
// denormals, +-0.0, and every k edge case. The references below are
// verbatim ports of the code the kernels replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "common/random.h"
#include "dl/grad_profile.h"
#include "sparse/topk.h"

namespace spardl {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations (the pre-radix-select kernels).

struct RefCandidate {
  float abs_value;
  uint32_t position;
};

bool RefGreater(const RefCandidate& a, const RefCandidate& b) {
  if (a.abs_value != b.abs_value) return a.abs_value > b.abs_value;
  return a.position < b.position;
}

std::vector<uint32_t> RefRank(std::vector<RefCandidate> candidates,
                              size_t k) {
  std::nth_element(candidates.begin(), candidates.begin() + (k - 1),
                   candidates.end(), RefGreater);
  std::vector<uint32_t> kept_positions;
  kept_positions.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    kept_positions.push_back(candidates[i].position);
  }
  std::sort(kept_positions.begin(), kept_positions.end());
  return kept_positions;
}

void RefSelectSparse(const SparseVector& input, size_t k, SparseVector* kept,
                     SparseVector* discarded) {
  kept->Clear();
  if (discarded != nullptr) discarded->Clear();
  if (k >= input.size()) {
    *kept = input;
    return;
  }
  if (k == 0) {
    if (discarded != nullptr) *discarded = input;
    return;
  }
  std::vector<RefCandidate> candidates;
  candidates.reserve(input.size());
  for (uint32_t i = 0; i < input.size(); ++i) {
    candidates.push_back({std::fabs(input.value(i)), i});
  }
  const std::vector<uint32_t> positions = RefRank(std::move(candidates), k);
  size_t next = 0;
  for (uint32_t i = 0; i < input.size(); ++i) {
    if (next < positions.size() && positions[next] == i) {
      kept->PushBack(input.index(i), input.value(i));
      ++next;
    } else if (discarded != nullptr) {
      discarded->PushBack(input.index(i), input.value(i));
    }
  }
}

void RefSelectDense(std::span<const float> dense, GradIndex base_index,
                    size_t k, SparseVector* kept, SparseVector* discarded) {
  kept->Clear();
  if (discarded != nullptr) discarded->Clear();
  std::vector<RefCandidate> candidates;
  for (uint32_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0f) candidates.push_back({std::fabs(dense[i]), i});
  }
  const size_t nnz = candidates.size();
  if (k >= nnz) {
    for (const RefCandidate& c : candidates) {
      kept->PushBack(base_index + c.position, dense[c.position]);
    }
    return;
  }
  if (k == 0) {
    if (discarded != nullptr) {
      for (const RefCandidate& c : candidates) {
        discarded->PushBack(base_index + c.position, dense[c.position]);
      }
    }
    return;
  }
  const std::vector<uint32_t> positions = RefRank(std::move(candidates), k);
  size_t next = 0;
  for (uint32_t i = 0; i < dense.size(); ++i) {
    if (dense[i] == 0.0f) continue;
    if (next < positions.size() && positions[next] == i) {
      kept->PushBack(base_index + i, dense[i]);
      ++next;
    } else if (discarded != nullptr) {
      discarded->PushBack(base_index + i, dense[i]);
    }
  }
}

void RefMergeSum(const SparseVector& a, const SparseVector& b,
                 SparseVector* out) {
  out->Clear();
  out->Reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const GradIndex ia = a.index(i);
    const GradIndex ib = b.index(j);
    if (ia < ib) {
      out->PushBack(ia, a.value(i));
      ++i;
    } else if (ib < ia) {
      out->PushBack(ib, b.value(j));
      ++j;
    } else {
      out->PushBack(ia, a.value(i) + b.value(j));
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) out->PushBack(a.index(i), a.value(i));
  for (; j < b.size(); ++j) out->PushBack(b.index(j), b.value(j));
}

SparseVector RefSumAll(std::span<const SparseVector> inputs) {
  SparseVector acc;
  SparseVector scratch;
  for (const SparseVector& x : inputs) {
    RefMergeSum(acc, x, &scratch);
    std::swap(acc, scratch);
  }
  return acc;
}

float RefKthLargestAbs(std::span<const float> dense, size_t k) {
  if (k == 0) return 0.0f;
  std::vector<float> abs_values;
  abs_values.reserve(dense.size());
  for (float v : dense) {
    if (v != 0.0f) abs_values.push_back(std::fabs(v));
  }
  if (k > abs_values.size()) return 0.0f;
  std::nth_element(abs_values.begin(), abs_values.begin() + (k - 1),
                   abs_values.end(), std::greater<float>());
  return abs_values[k - 1];
}

// ---------------------------------------------------------------------------
// Bit-level equality: operator== would treat -0.0f == +0.0f as equal, so
// the value arrays are compared as raw bytes.

bool BitIdentical(const SparseVector& a, const SparseVector& b) {
  if (a.size() != b.size()) return false;
  if (!std::equal(a.indices().begin(), a.indices().end(),
                  b.indices().begin())) {
    return false;
  }
  return a.empty() || std::memcmp(a.values().data(), b.values().data(),
                                  a.size() * sizeof(float)) == 0;
}

#define EXPECT_BIT_IDENTICAL(a, b) EXPECT_TRUE(BitIdentical((a), (b)))

// ---------------------------------------------------------------------------
// Adversarial value generators.

std::vector<float> GaussianValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.NextGaussian());
  return out;
}

// Heavy magnitude ties: every value drawn from a tiny magnitude alphabet,
// signs mixed, exact zeros (and -0.0f) included.
std::vector<float> TiedValues(size_t n, uint64_t seed) {
  static constexpr float kAlphabet[] = {0.0f,  -0.0f, 1.0f,  -1.0f,
                                        2.0f,  -2.0f, 0.5f,  -0.5f};
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = kAlphabet[rng.NextBounded(8)];
  return out;
}

// Denormals, the smallest normals, huge magnitudes, and infinities: the
// exponent-byte histogram must rank all of these exactly like the float
// comparison does.
std::vector<float> ExtremeValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) {
    switch (rng.NextBounded(5)) {
      case 0: {  // denormal: bit patterns 1..0x7fffff
        uint32_t bits = static_cast<uint32_t>(rng.NextBounded(0x7fffff)) + 1;
        float f;
        std::memcpy(&f, &bits, sizeof(f));
        v = (rng.NextBounded(2) != 0u) ? -f : f;
        break;
      }
      case 1:
        v = std::numeric_limits<float>::min();  // smallest normal
        break;
      case 2:
        v = 3.4e38f * (rng.NextBounded(2) != 0u ? -1.0f : 1.0f);
        break;
      case 3:
        v = std::numeric_limits<float>::infinity() *
            (rng.NextBounded(2) != 0u ? -1.0f : 1.0f);
        break;
      default:
        v = static_cast<float>(rng.NextGaussian()) * 1e-20f;
        break;
    }
  }
  return out;
}

SparseVector ToSparse(const std::vector<float>& values, uint64_t seed) {
  Rng rng(seed);
  std::vector<GradIndex> indices(values.size());
  GradIndex idx = 0;
  for (GradIndex& out : indices) {
    idx += 1 + static_cast<GradIndex>(rng.NextBounded(9));
    out = idx;
  }
  return SparseVector(std::move(indices), std::vector<float>(values));
}

std::vector<size_t> KSweep(size_t nnz) {
  return {0, 1, nnz / 2, nnz > 0 ? nnz - 1 : 0, nnz, nnz + 7};
}

void ExpectSparseSelectionMatchesReference(const SparseVector& input,
                                           size_t k) {
  SparseVector ref_kept, ref_disc, new_kept, new_disc;
  RefSelectSparse(input, k, &ref_kept, &ref_disc);
  TopKSelector selector;
  selector.SelectSparse(input, k, &new_kept, &new_disc);
  EXPECT_BIT_IDENTICAL(new_kept, ref_kept) << "nnz=" << input.size()
                                           << " k=" << k;
  EXPECT_BIT_IDENTICAL(new_disc, ref_disc) << "nnz=" << input.size()
                                           << " k=" << k;
  // Null-discard overload agrees too.
  SparseVector kept_only;
  selector.SelectSparse(input, k, &kept_only, nullptr);
  EXPECT_BIT_IDENTICAL(kept_only, ref_kept);
}

// ---------------------------------------------------------------------------
// Radix SelectSparse vs reference.

TEST(RadixSelectPropertyTest, GaussianSparseMatchesReference) {
  for (size_t n : {1u, 2u, 7u, 100u, 1000u}) {
    const SparseVector input = ToSparse(GaussianValues(n, n), 11 * n);
    for (size_t k : KSweep(n)) {
      ExpectSparseSelectionMatchesReference(input, k);
    }
  }
}

TEST(RadixSelectPropertyTest, HeavyTiesMatchReference) {
  for (size_t n : {3u, 64u, 500u}) {
    const SparseVector input = ToSparse(TiedValues(n, 7 * n), 13 * n);
    for (size_t k : KSweep(n)) {
      ExpectSparseSelectionMatchesReference(input, k);
    }
  }
}

TEST(RadixSelectPropertyTest, AllEqualValuesBreakTiesByPosition) {
  const SparseVector input = ToSparse(std::vector<float>(200, 1.0f), 5);
  for (size_t k : KSweep(200)) {
    ExpectSparseSelectionMatchesReference(input, k);
  }
  // Spot-check the documented tie-break: the kept set is the k lowest
  // indices.
  SparseVector kept;
  TopKSparse(input, 3, &kept);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept.index(0), input.index(0));
  EXPECT_EQ(kept.index(2), input.index(2));
}

TEST(RadixSelectPropertyTest, DenormalsAndExtremesMatchReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const SparseVector input = ToSparse(ExtremeValues(300, seed), seed);
    for (size_t k : KSweep(300)) {
      ExpectSparseSelectionMatchesReference(input, k);
    }
  }
}

TEST(RadixSelectPropertyTest, EmptyInput) {
  const SparseVector input;
  for (size_t k : {0u, 3u}) {
    ExpectSparseSelectionMatchesReference(input, k);
  }
}

// ---------------------------------------------------------------------------
// Radix SelectDense vs reference (zeros skipped, base index applied).

TEST(RadixSelectPropertyTest, DenseMatchesReference) {
  for (uint64_t seed : {1u, 2u}) {
    for (size_t n : {1u, 8u, 300u, 2000u}) {
      std::vector<float> dense = GaussianValues(n, seed * 100 + n);
      // Sprinkle exact zeros (and a -0.0f) to exercise the skip path.
      Rng rng(seed);
      for (float& v : dense) {
        if (rng.NextBounded(4) == 0) v = 0.0f;
      }
      if (n >= 8) dense[3] = -0.0f;
      const size_t nnz = static_cast<size_t>(
          std::count_if(dense.begin(), dense.end(),
                        [](float v) { return v != 0.0f; }));
      for (size_t k : KSweep(nnz)) {
        SparseVector ref_kept, ref_disc, new_kept, new_disc;
        RefSelectDense(dense, 1000, k, &ref_kept, &ref_disc);
        TopKSelector selector;
        selector.SelectDense(dense, 1000, k, &new_kept, &new_disc);
        EXPECT_BIT_IDENTICAL(new_kept, ref_kept) << "n=" << n << " k=" << k;
        EXPECT_BIT_IDENTICAL(new_disc, ref_disc) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(RadixSelectPropertyTest, DenseAdversarialBlocks) {
  // All zeros, all equal, all denormal, and an empty block.
  const std::vector<std::vector<float>> blocks = {
      {},
      std::vector<float>(64, 0.0f),
      std::vector<float>(64, -2.5f),
      ExtremeValues(64, 9),
  };
  for (const auto& dense : blocks) {
    for (size_t k : {0u, 1u, 32u, 64u, 100u}) {
      SparseVector ref_kept, ref_disc, new_kept, new_disc;
      RefSelectDense(dense, 0, k, &ref_kept, &ref_disc);
      TopKSelector selector;
      selector.SelectDense(dense, 0, k, &new_kept, &new_disc);
      EXPECT_BIT_IDENTICAL(new_kept, ref_kept);
      EXPECT_BIT_IDENTICAL(new_disc, ref_disc);
    }
  }
}

// ---------------------------------------------------------------------------
// SumAll: windowed dense accumulation vs pairwise reference.

// SumAll through both entry points: the inputs side by side, and pointers
// to them as the all-gathers hand them over. Both must give the same bits.
SparseVector SumAllBoth(std::span<const SparseVector> inputs) {
  std::vector<const SparseVector*> pointers;
  for (const SparseVector& x : inputs) pointers.push_back(&x);
  SparseVector by_value = SumAll(inputs);
  EXPECT_BIT_IDENTICAL(SumAll(pointers), by_value) << "by pointer";
  return by_value;
}

std::vector<SparseVector> OverlappingInputs(size_t p, size_t nnz,
                                            size_t index_range,
                                            uint64_t seed) {
  std::vector<SparseVector> inputs;
  for (size_t r = 0; r < p; ++r) {
    Rng rng(seed + r);
    std::vector<GradIndex> indices;
    std::vector<float> values;
    GradIndex idx = 0;
    const size_t max_gap = std::max<size_t>(2, index_range / (nnz + 1));
    for (size_t i = 0; i < nnz; ++i) {
      idx += 1 + static_cast<GradIndex>(rng.NextBounded(max_gap));
      indices.push_back(idx);
      values.push_back(static_cast<float>(rng.NextGaussian()));
    }
    inputs.emplace_back(std::move(indices), std::move(values));
  }
  return inputs;
}

TEST(SumAllPropertyTest, MatchesPairwiseForEveryP) {
  for (size_t p : {2u, 3u, 8u, 17u}) {
    // Wide index range: the inputs rarely overlap.
    const auto sparse_inputs = OverlappingInputs(p, 200, 100000, 7 * p);
    EXPECT_BIT_IDENTICAL(SumAllBoth(sparse_inputs),
                         RefSumAll(sparse_inputs))
        << "wide range, P=" << p;
    // Tight index range: the inputs overlap heavily.
    const auto dense_inputs = OverlappingInputs(p, 200, 250, 9 * p);
    EXPECT_BIT_IDENTICAL(SumAllBoth(dense_inputs),
                         RefSumAll(dense_inputs))
        << "tight range, P=" << p;
  }
}

TEST(SumAllPropertyTest, SignedZerosAndCancellationsSurviveBitwise) {
  // -0.0f copies, +x + -x cancellations (the union keeps a 0.0f entry),
  // and ties of zeros must reproduce the pairwise bits.
  const std::vector<SparseVector> inputs = {
      SparseVector({1, 5, 9}, {-0.0f, 2.0f, 1.0f}),
      SparseVector({2, 5, 9}, {-0.0f, -2.0f, 1.0f}),
      SparseVector({1, 9}, {0.0f, -2.0f}),
  };
  const SparseVector ref = RefSumAll(inputs);
  EXPECT_BIT_IDENTICAL(SumAllBoth(inputs), ref);
  // A far-away outrigger entry adds a second window.
  std::vector<SparseVector> spread = inputs;
  spread.push_back(SparseVector({1000000}, {4.0f}));
  EXPECT_BIT_IDENTICAL(SumAllBoth(spread), RefSumAll(spread));
}

TEST(SumAllPropertyTest, WindowEdgesHighIndicesAndManyInputs) {
  // TopkA's call in benchmark/'s topka_p64_fattree: 64 workers' top-4000
  // over a 4M span, 39,545 distinct indices, about 60 windows.
  const ProfileGradientGenerator generator(4'000'000, 2024);
  TopKSelector selector;
  std::vector<SparseVector> topka;
  for (int r = 0; r < 64; ++r) {
    SparseVector kept;
    selector.SelectSparse(generator.Generate(r, 1, 6000), 4000, &kept,
                          nullptr);
    topka.push_back(std::move(kept));
  }
  EXPECT_BIT_IDENTICAL(SumAllBoth(topka), RefSumAll(topka))
      << "TopkA's call";

  // SumAll's window is 2^16 slots and starts at the smallest pending
  // index: here 1000, so 1000 + w - 1 is its last slot, 1000 + w opens
  // the next window, and 1000 + 2w the one after that.
  constexpr GradIndex w = GradIndex{1} << 16;
  constexpr GradIndex b = 1000;
  const std::vector<SparseVector> edges = {
      SparseVector({b, b + w - 1, b + w, b + 2 * w},
                   {1.0f, 1e-8f, 3.0f, -0.5f}),
      SparseVector({b + w - 1, b + 2 * w - 1, b + 2 * w},
                   {1.0f, 2.0f, 0.25f}),
      SparseVector({b, b + w, b + 3 * w - 1}, {1e-8f, -3.0f, 7.0f}),
  };
  EXPECT_BIT_IDENTICAL(SumAllBoth(edges), RefSumAll(edges))
      << "window edges";

  // Indices up to 2^32 - 1: one window is [top - w, top), so the last
  // starts at top itself and ends past the 32-bit range.
  constexpr GradIndex top = std::numeric_limits<GradIndex>::max();
  const std::vector<SparseVector> high = {
      SparseVector({5, top - w, top - 10, top}, {1.0f, 2.0f, 3.0f, 4.0f}),
      SparseVector({top - w + 1, top - 10}, {0.5f, 1e-8f}),
      SparseVector({70000, top - w, top}, {-2.0f, 0.25f, -0.0f}),
  };
  EXPECT_BIT_IDENTICAL(SumAllBoth(high), RefSumAll(high)) << "2^32 - 1";

  // A -0.0f first touch in the second window, at the slot that the first
  // window touched: it must stay -0.0f, and -0.0f + -0.0f must too.
  const std::vector<SparseVector> zeros = {
      SparseVector({10, 10 + w, 30 + w}, {1.0f, -0.0f, -0.0f}),
      SparseVector({10, 30 + w}, {2.0f, -0.0f}),
      SparseVector({20 + 2 * w}, {-0.0f}),
  };
  EXPECT_BIT_IDENTICAL(SumAllBoth(zeros), RefSumAll(zeros)) << "-0.0f";

  // 1,024 small inputs over ~400 slots: every slot sums hundreds of
  // values, whose float rounding depends on the input order.
  const auto many = OverlappingInputs(1024, 50, 400, 11);
  EXPECT_BIT_IDENTICAL(SumAllBoth(many), RefSumAll(many))
      << "1,024 inputs";
}

TEST(SumAllPropertyTest, EmptyInputsAreNoOps) {
  const SparseVector a({1, 3}, {1.0f, 2.0f});
  const SparseVector b({2, 3}, {4.0f, 8.0f});
  const std::vector<SparseVector> with_empties = {SparseVector(), a,
                                                  SparseVector(), b,
                                                  SparseVector()};
  EXPECT_BIT_IDENTICAL(SumAllBoth(with_empties),
                       RefSumAll(std::vector<SparseVector>{a, b}));
  EXPECT_TRUE(SumAllBoth(std::vector<SparseVector>{}).empty());
  EXPECT_TRUE(
      SumAllBoth(std::vector<SparseVector>{SparseVector(), SparseVector()})
          .empty());
  EXPECT_BIT_IDENTICAL(SumAllBoth(std::vector<SparseVector>{a}), a);
}

// ---------------------------------------------------------------------------
// KthLargestAbs (radix order statistic) vs reference.

TEST(KthLargestAbsPropertyTest, MatchesReferenceAcrossGenerators) {
  std::vector<float> scratch;  // reused across every call below
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& values :
         {GaussianValues(500, seed), TiedValues(500, seed),
          ExtremeValues(500, seed)}) {
      std::vector<float> with_zeros = values;
      with_zeros[7] = 0.0f;
      with_zeros[8] = -0.0f;
      for (size_t k : {0u, 1u, 250u, 499u, 500u, 501u}) {
        EXPECT_EQ(KthLargestAbs(with_zeros, k),
                  RefKthLargestAbs(with_zeros, k))
            << "seed=" << seed << " k=" << k;
        EXPECT_EQ(KthLargestAbs(with_zeros, k, &scratch),
                  RefKthLargestAbs(with_zeros, k))
            << "seed=" << seed << " k=" << k << " (scratch)";
        const SparseVector sparse = ToSparse(with_zeros, seed);
        EXPECT_EQ(KthLargestAbs(sparse, k, &scratch),
                  RefKthLargestAbs(with_zeros, k))
            << "seed=" << seed << " k=" << k << " (sparse)";
      }
    }
  }
}

}  // namespace
}  // namespace spardl
