#include "baselines/oktopk.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "collectives/sparse_allgather.h"
#include "common/logging.h"

namespace spardl {

OkTopk::OkTopk(const AlgorithmConfig& config)
    : BaselineBase(config, "Ok-Topk", ResidualMode::kPartial) {
  // Start from uniform region boundaries.
  const size_t p = static_cast<size_t>(config.num_workers);
  const size_t width = (config.n + p - 1) / p;
  boundaries_.resize(p + 1);
  for (size_t r = 0; r <= p; ++r) {
    boundaries_[r] =
        static_cast<GradIndex>(std::min(config.n, r * width));
  }
}

void OkTopk::AdjustThreshold(size_t count) {
  last_local_count_ = count;
  // Multiplicative steering toward a local count of k. sqrt damps the
  // correction so the threshold tracks the (slowly drifting) gradient
  // magnitude distribution without oscillating.
  if (count == 0) {
    threshold_ *= 0.5;
    return;
  }
  if (threshold_ <= 0.0 && count > k_) {
    // A zero threshold can never recover multiplicatively; force an exact
    // recalibration on the next iteration.
    threshold_initialized_ = false;
    return;
  }
  const double ratio =
      static_cast<double>(count) / static_cast<double>(k_);
  threshold_ *= std::sqrt(ratio);
}

SparseVector OkTopk::LocalSelectDense(std::span<const float> grad) {
  if (!threshold_initialized_) {
    threshold_ = KthLargestAbs(grad, k_, &abs_scratch_);
    threshold_initialized_ = true;
  }
  SparseVector kept;
  SparseVector discarded;
  const float tau = static_cast<float>(threshold_);
  for (size_t i = 0; i < grad.size(); ++i) {
    const float v = grad[i];
    if (v == 0.0f) continue;
    if (std::fabs(v) >= tau) {
      kept.PushBack(static_cast<GradIndex>(i), v);
    } else {
      discarded.PushBack(static_cast<GradIndex>(i), v);
    }
  }
  residuals_.AddLocalDiscard(discarded);
  AdjustThreshold(kept.size());
  return kept;
}

SparseVector OkTopk::LocalSelectSparse(const SparseVector& candidates) {
  if (!threshold_initialized_) {
    // Estimate the initial threshold from the candidates' k-th magnitude
    // (shared radix-select kernel; k at or beyond the candidate count
    // calibrates to 0, keeping everything, exactly as before).
    threshold_ = (k_ < candidates.size())
                     ? KthLargestAbs(candidates, k_, &abs_scratch_)
                     : 0.0;
    threshold_initialized_ = true;
  }
  SparseVector kept;
  SparseVector discarded;
  ThresholdSelect(candidates, static_cast<float>(threshold_), &kept,
                  &discarded);
  residuals_.AddLocalDiscard(discarded);
  AdjustThreshold(kept.size());
  return kept;
}

SparseVector OkTopk::Core(Comm& comm, SparseVector local) {
  const int p = comm.size();
  const int rank = comm.rank();
  const CommGroup world = CommGroup::World(comm);

  // Phase A: direct-send reduce-scatter over the (possibly uneven)
  // regions, staged in two hops per destination as in Li & Hoefler's
  // implementation — this is where the paper's 2(P + log P) alpha latency
  // comes from.
  SparseVector my_region;
  local.ExtractRange(boundaries_[static_cast<size_t>(rank)],
                     boundaries_[static_cast<size_t>(rank) + 1], &my_region);
  for (int offset = 1; offset < p; ++offset) {
    const int dst = (rank + offset) % p;
    const GradIndex lo = boundaries_[static_cast<size_t>(dst)];
    const GradIndex hi = boundaries_[static_cast<size_t>(dst) + 1];
    const GradIndex mid = lo + (hi - lo) / 2;
    SparseVector first_half;
    SparseVector second_half;
    local.ExtractRange(lo, mid, &first_half);
    local.ExtractRange(mid, hi, &second_half);
    comm.Send(dst, Payload(std::move(first_half)), /*tag=*/0);
    comm.Send(dst, Payload(std::move(second_half)), /*tag=*/1);
  }
  SparseVector scratch;
  for (int stage = 0; stage < 2; ++stage) {
    for (int offset = 1; offset < p; ++offset) {
      const int src = (rank - offset + p) % p;
      SparseVector slice = comm.RecvAs<SparseVector>(src, /*tag=*/stage);
      MergeSumInPlace(&my_region, slice, &scratch);
    }
  }

  // Phase B: owner-side pruning to ~k/P, ties included (threshold pruning,
  // so the kept count can exceed the target).
  const size_t target = std::max<size_t>(
      1, (k_ + static_cast<size_t>(p) - 1) / static_cast<size_t>(p));
  if (my_region.size() > target) {
    const float region_tau = KthLargestAbs(my_region, target, &abs_scratch_);
    SparseVector kept;
    SparseVector discarded;
    ThresholdSelect(my_region, region_tau, &kept, &discarded);
    residuals_.AddCommDiscard(discarded, 1.0f);
    my_region = std::move(kept);
  }

  // Phase C: chunk sizes, then the uneven-chunk all-gather. Every list
  // carries its entry counts, so the size exchange only charges the wire:
  // one word per member, as an empty part declared at 1 word.
  (void)BruckAllGather(comm, world, PartList(SparseVector(), 1));
  SparseVector final_gradient = ConcatDisjoint(
      BruckAllGather(comm, world, PartList(std::move(my_region))));

  // Phase D: periodic region rebalancing from the (replicated) support.
  ++iteration_;
  if (iteration_ % kRebalancePeriod == 0) {
    RebalanceBoundaries(final_gradient);
  }
  return final_gradient;
}

void OkTopk::RebalanceBoundaries(const SparseVector& final_gradient) {
  const size_t p = static_cast<size_t>(num_workers_);
  if (final_gradient.size() < p) return;  // too sparse to matter
  // Equal-count cuts through the global support. Every worker holds the
  // same final gradient, so all replicas derive identical boundaries.
  boundaries_.front() = 0;
  boundaries_.back() = static_cast<GradIndex>(n_);
  for (size_t r = 1; r < p; ++r) {
    const size_t cut = r * final_gradient.size() / p;
    GradIndex boundary = final_gradient.index(cut);
    boundary = std::max(boundary, boundaries_[r - 1]);
    boundaries_[r] = boundary;
  }
}

}  // namespace spardl
