#ifndef SPARDL_SPARSE_TOPK_H_
#define SPARDL_SPARSE_TOPK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/sparse_vector.h"

namespace spardl {

/// Top-k selection by absolute value, the primitive behind every
/// sparsification step in SparDL and the baselines.
///
/// Selection is deterministic: ties on |value| are broken toward the lower
/// index, so every worker running the same selection on identical data keeps
/// exactly the same entries (required for gradient consistency).
///
/// Algorithm: radix-select. One pass histograms the IEEE-754 exponent byte
/// of |value| into 256 buckets; the cumulative count (from the largest
/// exponent down) locates the boundary bucket, and only that bucket's
/// elements (typically a small fraction of the input) are refined with
/// std::nth_element to find the exact k-th element — the *pivot* — under
/// the (|value| desc, position asc) total order. Because the order is
/// total, membership in the kept set is a single O(1) comparison against
/// the pivot, so kept and discarded are emitted in one index-ordered sweep:
/// no per-element candidate materialisation and no position re-sort. The
/// kept sets are bit-identical to the previous full-nth_element selector
/// (property-tested against it). Magnitudes are compared as the unsigned
/// abs bit patterns, which orders all finite floats — denormals included —
/// exactly like the float compare. NaNs are unsupported (as before: the
/// old comparator was not a valid ordering under NaN either).
///
/// The class holds scratch buffers so repeated calls do not allocate.
class TopKSelector {
 public:
  TopKSelector() = default;

  /// Keeps the k largest-|value| entries of `input` in `kept` (sorted by
  /// index). If `discarded` is non-null, the remaining entries land there
  /// (also sorted). If k >= input.size(), everything is kept.
  void SelectSparse(const SparseVector& input, size_t k, SparseVector* kept,
                    SparseVector* discarded);

  /// Same selection over a dense block; produced indices are offset by
  /// `base_index`. Zeros are never selected (they carry no information) but
  /// are also never reported as discarded.
  void SelectDense(std::span<const float> dense, GradIndex base_index,
                   size_t k, SparseVector* kept, SparseVector* discarded);

 private:
  // The k-th element under the (abs desc, position asc) total order, as
  // (abs bit pattern, input position). An element (a, p) is kept iff
  // a > abs_bits, or a == abs_bits and p <= position.
  struct Pivot {
    uint32_t abs_bits;
    uint32_t position;
  };
  struct Candidate {
    uint32_t abs_bits;
    uint32_t position;
  };

  // Exact pivot via exponent histogram + boundary-bucket refinement over a
  // sparse value array (zeros are candidates, matching SelectSparse).
  // Requires 0 < k < values.size().
  Pivot SparsePivotRadix(std::span<const float> values, size_t k);

  // Exact k-th candidate among bucket_scratch_, which must hold a superset
  // of the true top-k; requires 0 < k <= bucket_scratch_.size().
  Pivot PivotFromCandidates(size_t k);

  // One index-ordered sweep emitting kept (exactly k entries) and, when
  // non-null, discarded (the rest) by O(1) pivot comparison.
  void EmitSparse(const SparseVector& input, size_t k, Pivot pivot,
                  SparseVector* kept, SparseVector* discarded);

  size_t counts_[256];
  std::vector<Candidate> bucket_scratch_;
};

/// One-shot convenience wrappers (allocate internally).
void TopKSparse(const SparseVector& input, size_t k, SparseVector* kept,
                SparseVector* discarded = nullptr);
void TopKDense(std::span<const float> dense, GradIndex base_index, size_t k,
               SparseVector* kept, SparseVector* discarded = nullptr);

/// Selects every entry with |value| >= threshold (Ok-Topk style pruning).
/// Returns the number kept; discards go to `discarded` when non-null.
size_t ThresholdSelect(const SparseVector& input, float threshold,
                       SparseVector* kept, SparseVector* discarded = nullptr);

/// |value| of the k-th largest-|value| non-zero element of `dense`
/// (1-based k). Returns 0 when k exceeds the number of non-zeros. Uses the
/// same radix-select as TopKSelector (histogram + boundary-bucket refine).
float KthLargestAbs(std::span<const float> dense, size_t k);

/// Scratch-reusing overload: `scratch` holds the boundary bucket between
/// calls so the hot path does not reallocate.
float KthLargestAbs(std::span<const float> dense, size_t k,
                    std::vector<float>* scratch);

/// The same order statistic over a sparse vector's values (zero-valued
/// entries excluded, like the dense overload). Shared selection kernel for
/// the baselines' threshold calibration (Ok-Topk).
float KthLargestAbs(const SparseVector& input, size_t k,
                    std::vector<float>* scratch);

}  // namespace spardl

#endif  // SPARDL_SPARSE_TOPK_H_
