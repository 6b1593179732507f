#ifndef SPARDL_SPARSE_SPARSE_VECTOR_H_
#define SPARDL_SPARSE_SPARSE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"

namespace spardl {

class TopKSelector;

/// Index into a flattened gradient vector.
///
/// 32-bit: the largest model in the paper (BERT, 133.5M parameters) fits
/// comfortably, and a sparse entry packs to exactly 8 bytes = two 4-byte
/// "gradient words", matching the paper's bandwidth accounting where a
/// sparse gradient costs 2 words (index + value).
using GradIndex = uint32_t;

/// A sparse gradient in coordinate (COO) format.
///
/// Invariants: indices are strictly ascending (sorted, unique). All SparDL
/// and baseline communication operates on these; keeping them sorted makes
/// merge-summation a linear k-way merge and makes results independent
/// of message arrival order (required for synchronous-SGD consistency).
///
/// Storage is struct-of-arrays for cache-friendly scans.
class SparseVector {
 public:
  SparseVector() = default;

  /// Builds from parallel arrays. CHECK-fails if not strictly ascending.
  SparseVector(std::vector<GradIndex> indices, std::vector<float> values);

  /// Extracts all non-zeros of `dense`, offset by `base_index`.
  static SparseVector FromDense(std::span<const float> dense,
                                GradIndex base_index = 0);

  size_t size() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }

  std::span<const GradIndex> indices() const { return indices_; }
  std::span<const float> values() const { return values_; }

  GradIndex index(size_t i) const { return indices_[i]; }
  float value(size_t i) const { return values_[i]; }

  void Clear() {
    indices_.clear();
    values_.clear();
  }
  void Reserve(size_t n) {
    indices_.reserve(n);
    values_.reserve(n);
  }
  /// Releases spare capacity, so the vector holds exactly its entries.
  void ShrinkToFit() {
    indices_.shrink_to_fit();
    values_.shrink_to_fit();
  }

  /// Appends an entry; index must exceed the current last index.
  void PushBack(GradIndex index, float value) {
    SPARDL_DCHECK(indices_.empty() || index > indices_.back());
    indices_.push_back(index);
    values_.push_back(value);
  }

  /// Bulk append of parallel spans whose indices are strictly ascending and
  /// all above the current last index. One O(1) boundary CHECK covers the
  /// whole span (the span's internal order is DCHECK-verified in debug
  /// builds), so hot paths pay one comparison instead of a per-entry check.
  void AppendSpan(std::span<const GradIndex> indices,
                  std::span<const float> values);

  /// Number of 4-byte words this vector occupies on the wire (2 per entry).
  size_t WireWords() const { return 2 * size(); }

  /// Sum of raw (signed) values. Used by mass-conservation tests.
  double ValueSum() const;

  /// True if every index lies in [lo, hi).
  bool IndicesWithin(GradIndex lo, GradIndex hi) const;

  /// Adds `value` at `index` into `dense` for every entry
  /// (dense[index] += value). Indices must be < dense.size().
  void AddToDense(std::span<float> dense) const;

  /// Entries with index in [lo, hi), appended to `out` (which must currently
  /// end below `lo` or be empty).
  void ExtractRange(GradIndex lo, GradIndex hi, SparseVector* out) const;

  bool operator==(const SparseVector& other) const {
    return indices_ == other.indices_ && values_ == other.values_;
  }

 private:
  // Kernel backdoor for the merge/selection kernels: size the arrays
  // without ordering enforcement, then fill entries through the raw data
  // pointers in strictly ascending index order. Private + friended so the
  // sorted-unique invariant stays encapsulated. Note vector::resize still
  // value-initializes grown elements (std::vector offers no uninitialized
  // resize), so growth costs one streaming zero-fill of the new tail; the
  // measured kernel speedups include that cost.
  void ResizeForOverwrite(size_t n) {
    indices_.resize(n);
    values_.resize(n);
  }
  GradIndex* MutableIndexData() { return indices_.data(); }
  float* MutableValueData() { return values_.data(); }

  friend class TopKSelector;
  friend void MergeSum(const SparseVector& a, const SparseVector& b,
                       SparseVector* out);
  friend SparseVector SumAll(std::span<const SparseVector* const> inputs);

  std::vector<GradIndex> indices_;
  std::vector<float> values_;
};

/// out = a + b (index-wise union; overlapping indices sum their values).
/// Deterministic: the result depends only on the operand *values*, not on
/// execution order. `out` may not alias `a` or `b`.
void MergeSum(const SparseVector& a, const SparseVector& b, SparseVector* out);

/// acc += x, via MergeSum into a scratch vector that is swapped back.
/// Reuses `scratch`'s capacity across calls.
void MergeSumInPlace(SparseVector* acc, const SparseVector& x,
                     SparseVector* scratch);

/// Sums a list of sparse vectors. Bit-identical to pairwise left-to-right
/// MergeSum accumulation (overlapping indices add their values in input
/// order, and a lone -0.0f stays -0.0f). Three or more non-empty inputs
/// are summed densely, one fixed window of 2^16 index slots at a time,
/// each starting at the smallest pending index. The cost is the total nnz
/// plus, per non-empty window, two passes over the P inputs and a walk of
/// up to 1,024 bitmap words, so a very sparse call over a wide span pays
/// that overhead once per window. Empty stretches cost nothing, and the
/// scratch is a fixed 264 KiB whatever the span. Takes the inputs by
/// pointer: the overload below and the `PartList` one (`part_list.h`),
/// which sums what a sparse all-gather returns, both feed it.
SparseVector SumAll(std::span<const SparseVector* const> inputs);

/// `SumAll` over inputs stored side by side.
SparseVector SumAll(std::span<const SparseVector> inputs);

/// Concatenates vectors whose index ranges are disjoint and ascending in
/// the given order. CHECK-fails if ranges interleave.
SparseVector ConcatDisjoint(std::span<const SparseVector> parts);

}  // namespace spardl

#endif  // SPARDL_SPARSE_SPARSE_VECTOR_H_
