#include "sparse/topk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

namespace spardl {

namespace {

// Bit pattern of |v|. For non-negative IEEE-754 floats the unsigned bit
// pattern orders exactly like the float value — denormals included — so
// magnitude comparisons run as integer compares.
inline uint32_t AbsBits(float v) {
  return std::bit_cast<uint32_t>(v) & 0x7FFFFFFFu;
}

// The IEEE-754 exponent byte: the radix digit for the bucket histogram.
inline size_t ExponentBucket(uint32_t abs_bits) { return abs_bits >> 23; }

// Larger |value| wins; ties go to the lower position (deterministic).
inline bool CandidateGreater(uint32_t abs_a, uint32_t pos_a, uint32_t abs_b,
                             uint32_t pos_b) {
  if (abs_a != abs_b) return abs_a > abs_b;
  return pos_a < pos_b;
}

// Walks the exponent histogram from the largest bucket down to the one
// holding the k-th element. Returns that bucket; *above gets the count of
// elements in strictly larger buckets. Requires k <= sum(counts).
size_t BoundaryBucket(const size_t counts[256], size_t k, size_t* above) {
  *above = 0;
  size_t bucket = 256;
  while (bucket-- > 0) {
    if (*above + counts[bucket] >= k) break;
    *above += counts[bucket];
  }
  return bucket;
}

}  // namespace

TopKSelector::Pivot TopKSelector::PivotFromCandidates(size_t k) {
  SPARDL_DCHECK(k >= 1);
  SPARDL_DCHECK_LE(k, bucket_scratch_.size());
  auto cmp = [](const Candidate& a, const Candidate& b) {
    return CandidateGreater(a.abs_bits, a.position, b.abs_bits, b.position);
  };
  std::nth_element(bucket_scratch_.begin(), bucket_scratch_.begin() + (k - 1),
                   bucket_scratch_.end(), cmp);
  const Candidate& c = bucket_scratch_[k - 1];
  return {c.abs_bits, c.position};
}

TopKSelector::Pivot TopKSelector::SparsePivotRadix(
    std::span<const float> values, size_t k) {
  const float* val = values.data();
  const uint32_t n = static_cast<uint32_t>(values.size());
  std::fill(std::begin(counts_), std::end(counts_), 0);
  for (uint32_t i = 0; i < n; ++i) {
    ++counts_[ExponentBucket(AbsBits(val[i]))];
  }
  // Only the boundary bucket needs exact refinement.
  size_t above;
  const size_t bucket = BoundaryBucket(counts_, k, &above);
  bucket_scratch_.clear();
  bucket_scratch_.reserve(counts_[bucket]);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t ab = AbsBits(val[i]);
    if (ExponentBucket(ab) == bucket) bucket_scratch_.push_back({ab, i});
  }
  return PivotFromCandidates(k - above);
}

void TopKSelector::EmitSparse(const SparseVector& input, size_t k,
                              Pivot pivot, SparseVector* kept,
                              SparseVector* discarded) {
  const uint32_t n = static_cast<uint32_t>(input.size());
  const GradIndex* idx = input.indices().data();
  const float* val = input.values().data();
  kept->ResizeForOverwrite(k);
  GradIndex* ki = kept->MutableIndexData();
  float* kv = kept->MutableValueData();
  GradIndex* di = nullptr;
  float* dv = nullptr;
  if (discarded != nullptr) {
    discarded->ResizeForOverwrite(n - k);
    di = discarded->MutableIndexData();
    dv = discarded->MutableValueData();
  }
  size_t nk = 0;
  size_t nd = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t ab = AbsBits(val[i]);
    if (ab > pivot.abs_bits || (ab == pivot.abs_bits && i <= pivot.position)) {
      ki[nk] = idx[i];
      kv[nk] = val[i];
      ++nk;
    } else if (di != nullptr) {
      di[nd] = idx[i];
      dv[nd] = val[i];
      ++nd;
    }
  }
  SPARDL_DCHECK_EQ(nk, k);
}

void TopKSelector::SelectSparse(const SparseVector& input, size_t k,
                                SparseVector* kept, SparseVector* discarded) {
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
  const Pivot pivot = SparsePivotRadix(input.values(), k);
  EmitSparse(input, k, pivot, kept, discarded);
}

void TopKSelector::SelectDense(std::span<const float> dense,
                               GradIndex base_index, size_t k,
                               SparseVector* kept, SparseVector* discarded) {
  kept->Clear();
  if (discarded != nullptr) discarded->Clear();
  const float* val = dense.data();
  const uint32_t n = static_cast<uint32_t>(dense.size());
  std::fill(std::begin(counts_), std::end(counts_), 0);
  size_t nnz = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t ab = AbsBits(val[i]);
    if (ab == 0) continue;  // +-0 carries no information
    ++counts_[ExponentBucket(ab)];
    ++nnz;
  }
  if (k >= nnz || k == 0) {
    // Keep (or discard) every non-zero; no pivot needed.
    SparseVector* all = (k == 0) ? discarded : kept;
    if (all == nullptr) return;
    all->ResizeForOverwrite(nnz);
    GradIndex* oi = all->MutableIndexData();
    float* ov = all->MutableValueData();
    size_t m = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (val[i] != 0.0f) {
        oi[m] = base_index + i;
        ov[m] = val[i];
        ++m;
      }
    }
    return;
  }
  size_t above;
  const size_t bucket = BoundaryBucket(counts_, k, &above);
  bucket_scratch_.clear();
  bucket_scratch_.reserve(counts_[bucket]);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t ab = AbsBits(val[i]);
    if (ab != 0 && ExponentBucket(ab) == bucket) {
      bucket_scratch_.push_back({ab, i});
    }
  }
  const Pivot pivot = PivotFromCandidates(k - above);
  kept->ResizeForOverwrite(k);
  GradIndex* ki = kept->MutableIndexData();
  float* kv = kept->MutableValueData();
  GradIndex* di = nullptr;
  float* dv = nullptr;
  if (discarded != nullptr) {
    discarded->ResizeForOverwrite(nnz - k);
    di = discarded->MutableIndexData();
    dv = discarded->MutableValueData();
  }
  size_t nk = 0;
  size_t nd = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t ab = AbsBits(val[i]);
    if (ab == 0) continue;
    if (ab > pivot.abs_bits || (ab == pivot.abs_bits && i <= pivot.position)) {
      ki[nk] = base_index + i;
      kv[nk] = val[i];
      ++nk;
    } else if (di != nullptr) {
      di[nd] = base_index + i;
      dv[nd] = val[i];
      ++nd;
    }
  }
  SPARDL_DCHECK_EQ(nk, k);
}

void TopKSparse(const SparseVector& input, size_t k, SparseVector* kept,
                SparseVector* discarded) {
  TopKSelector selector;
  selector.SelectSparse(input, k, kept, discarded);
}

void TopKDense(std::span<const float> dense, GradIndex base_index, size_t k,
               SparseVector* kept, SparseVector* discarded) {
  TopKSelector selector;
  selector.SelectDense(dense, base_index, k, kept, discarded);
}

size_t ThresholdSelect(const SparseVector& input, float threshold,
                       SparseVector* kept, SparseVector* discarded) {
  kept->Clear();
  if (discarded != nullptr) discarded->Clear();
  for (size_t i = 0; i < input.size(); ++i) {
    if (std::fabs(input.value(i)) >= threshold) {
      kept->PushBack(input.index(i), input.value(i));
    } else if (discarded != nullptr) {
      discarded->PushBack(input.index(i), input.value(i));
    }
  }
  return kept->size();
}

namespace {

// Shared radix-select order statistic: histogram the exponent byte of the
// non-zero |values|, then refine only the boundary bucket. `scratch` holds
// that bucket (a vector<float>, so callers can reuse one buffer across
// calls without knowing the kernel's internals).
float KthLargestAbsImpl(const float* val, size_t n, size_t k,
                        std::vector<float>* scratch) {
  if (k == 0) return 0.0f;
  size_t counts[256] = {};
  size_t nnz = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t ab = AbsBits(val[i]);
    if (ab == 0) continue;
    ++counts[ExponentBucket(ab)];
    ++nnz;
  }
  if (k > nnz) return 0.0f;
  size_t above;
  const size_t bucket = BoundaryBucket(counts, k, &above);
  scratch->clear();
  scratch->reserve(counts[bucket]);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t ab = AbsBits(val[i]);
    if (ab != 0 && ExponentBucket(ab) == bucket) {
      scratch->push_back(std::bit_cast<float>(ab));
    }
  }
  const size_t need = k - above;
  std::nth_element(scratch->begin(),
                   scratch->begin() + static_cast<ptrdiff_t>(need - 1),
                   scratch->end(), std::greater<float>());
  return (*scratch)[need - 1];
}

}  // namespace

float KthLargestAbs(std::span<const float> dense, size_t k) {
  std::vector<float> scratch;
  return KthLargestAbsImpl(dense.data(), dense.size(), k, &scratch);
}

float KthLargestAbs(std::span<const float> dense, size_t k,
                    std::vector<float>* scratch) {
  return KthLargestAbsImpl(dense.data(), dense.size(), k, scratch);
}

float KthLargestAbs(const SparseVector& input, size_t k,
                    std::vector<float>* scratch) {
  return KthLargestAbsImpl(input.values().data(), input.size(), k, scratch);
}

}  // namespace spardl
