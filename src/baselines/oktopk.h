#ifndef SPARDL_BASELINES_OKTOPK_H_
#define SPARDL_BASELINES_OKTOPK_H_

#include <vector>

#include "baselines/baseline_common.h"

namespace spardl {

/// Ok-Topk (Li & Hoefler, PPoPP'22) — the strongest baseline in the paper.
///
/// Per iteration:
///  1. *Threshold pruning* locally: keep |v| >= tau, where tau is a
///     per-worker estimate steered multiplicatively toward a count of k.
///     Unlike an exact top-k this can keep more (or fewer) than k entries —
///     the instability the paper calls out in §I(ii).
///  2. Direct-send reduce-scatter into P index *regions* (P-1 messages ->
///     Theta(P) latency, Table I row 4).
///  3. Region owners sum and prune to ~k/P with a ties-inclusive threshold.
///  4. A chunk-size all-gather plus an uneven-chunk Bruck all-gather (the
///     "extra transmission steps to balance the uneven distribution").
///  5. Every `kRebalancePeriod` iterations the region boundaries are
///     recomputed from the global support so region loads even out;
///     between rebalances they drift apart, which is the paper's
///     criticism §I(i).
class OkTopk final : public BaselineBase {
 public:
  /// Iterations between region rebalances (64 in the paper).
  static constexpr int kRebalancePeriod = 64;

  explicit OkTopk(const AlgorithmConfig& config);

  /// Current region boundaries (size P+1); exposed for tests.
  const std::vector<GradIndex>& boundaries() const { return boundaries_; }

  /// Entries kept by the last local threshold pruning (>= or < k).
  size_t last_local_count() const { return last_local_count_; }

 private:
  SparseVector LocalSelectDense(std::span<const float> grad) override;
  SparseVector LocalSelectSparse(const SparseVector& candidates) override;
  SparseVector Core(Comm& comm, SparseVector local) override;

  void AdjustThreshold(size_t count);
  void RebalanceBoundaries(const SparseVector& final_gradient);

  std::vector<GradIndex> boundaries_;  // region r = [b[r], b[r+1])
  std::vector<float> abs_scratch_;     // KthLargestAbs bucket, reused
  double threshold_ = 0.0;
  bool threshold_initialized_ = false;
  int64_t iteration_ = 0;
  size_t last_local_count_ = 0;
};

}  // namespace spardl

#endif  // SPARDL_BASELINES_OKTOPK_H_
