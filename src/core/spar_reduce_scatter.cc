#include "core/spar_reduce_scatter.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/quantize.h"
#include "sparse/topk.h"

namespace spardl {

namespace {

// Shared SRS engine: starts from per-block sparse states (already within
// budget) and runs the l transmission steps.
class SrsEngine {
 public:
  SrsEngine(Comm& comm, const CommGroup& group, size_t n,
            const SrsOptions& options, ResidualStore* residuals)
      : comm_(comm),
        group_(group),
        options_(options),
        residuals_(residuals),
        partition_(n, group.size()),
        layout_(group.size(), group.my_pos()),
        budget_(partition_.PerBlockBudget(options.k)),
        block_state_(static_cast<size_t>(group.size())),
        held_(static_cast<size_t>(group.size()), true),
        warm_threshold_(static_cast<size_t>(group.size()), 0.0f) {}

  const BlockPartition& partition() const { return partition_; }
  size_t budget() const { return budget_; }
  std::vector<SparseVector>& block_state() { return block_state_; }

  // Runs the transmission-with-sparsification phase and returns the block
  // owned by this group position.
  SparseVector Run() {
    const int steps = layout_.num_steps();
    for (int step = 1; step <= steps; ++step) {
      TraceScope step_scope(comm_, Phase::kSrs, "srs-step", step);
      const int bag = layout_.BagForStep(step);
      const std::vector<int>& outgoing_blocks = layout_.Bag(bag);
      if (options_.lazy_sparsify) {
        // Only the blocks about to leave get re-sparsified.
        TraceScope scope(comm_, Phase::kSparsify, "resparsify", step);
        for (int b : outgoing_blocks) SparsifyBlock(b);
      }
      // Ship the bag (one message per step, blocks in bag order),
      // optionally quantizing values on the wire.
      std::vector<SparseVector> outgoing;
      outgoing.reserve(outgoing_blocks.size());
      size_t words_override = 0;
      for (int b : outgoing_blocks) {
        SparseVector block = std::move(block_state_[static_cast<size_t>(b)]);
        block_state_[static_cast<size_t>(b)].Clear();
        held_[static_cast<size_t>(b)] = false;
        if (options_.value_bits != 32) {
          QuantizeDequantize(&block, options_.value_bits, &discarded_);
          if (residuals_ != nullptr) {
            residuals_->AddCommDiscard(discarded_, 1.0f);
          }
          words_override +=
              QuantizedWireWords(block.size(), options_.value_bits);
        }
        outgoing.push_back(std::move(block));
      }
      comm_.Send(group_.GlobalRank(layout_.SendPeer(step)),
                 Payload(std::move(outgoing)), /*tag=*/0, words_override);

      // Receive the matching bag from the source worker; its block ranks
      // follow from the source's (deterministic) bag layout.
      const int src_pos = layout_.RecvPeer(step);
      std::vector<SparseVector> incoming =
          comm_.RecvAs<std::vector<SparseVector>>(
              group_.GlobalRank(src_pos));
      const SrsBagLayout src_layout(group_.size(), src_pos);
      const std::vector<int>& incoming_blocks = src_layout.Bag(bag);
      SPARDL_CHECK_EQ(incoming.size(), incoming_blocks.size());
      for (size_t i = 0; i < incoming.size(); ++i) {
        const int b = incoming_blocks[i];
        // Theorem 1: every received block is still held by the receiver.
        SPARDL_CHECK(held_[static_cast<size_t>(b)])
            << "Theorem 1 violated: received block " << b
            << " is no longer held by group position " << group_.my_pos();
        SPARDL_CHECK(incoming[i].IndicesWithin(partition_.BlockStart(b),
                                               partition_.BlockEnd(b)))
            << "received block " << b << " has out-of-range indices";
        MergeSumInPlace(&block_state_[static_cast<size_t>(b)], incoming[i],
                        &scratch_);
      }
      if (!options_.lazy_sparsify) {
        // Eager variant: re-sparsify every remaining block after summation.
        TraceScope scope(comm_, Phase::kSparsify, "resparsify", step);
        for (int b = 0; b < group_.size(); ++b) {
          if (held_[static_cast<size_t>(b)]) SparsifyBlock(b);
        }
      }
    }
    // Only the preservation block remains; give it its final selection.
    SparsifyBlock(group_.my_pos());
    for (int b = 0; b < group_.size(); ++b) {
      SPARDL_DCHECK(held_[static_cast<size_t>(b)] == (b == group_.my_pos()));
    }
    return std::move(block_state_[static_cast<size_t>(group_.my_pos())]);
  }

 private:
  void SparsifyBlock(int b) {
    SparseVector& state = block_state_[static_cast<size_t>(b)];
    if (state.size() <= budget_) return;
    // Warm-started selection: each block is re-sparsified every step with a
    // slowly moving k-th magnitude, so the previous step's threshold prunes
    // most candidates before the exact (bit-identical) pivot search.
    selector_.SelectSparseWarm(state, budget_, &kept_, &discarded_,
                               &warm_threshold_[static_cast<size_t>(b)]);
    if (residuals_ != nullptr) {
      residuals_->AddCommDiscard(discarded_, 1.0f);
    }
    std::swap(state, kept_);
  }

  Comm& comm_;
  const CommGroup& group_;
  const SrsOptions& options_;
  ResidualStore* residuals_;
  BlockPartition partition_;
  SrsBagLayout layout_;
  size_t budget_;
  std::vector<SparseVector> block_state_;
  std::vector<bool> held_;
  std::vector<float> warm_threshold_;  // per block; 0 = cold
  TopKSelector selector_;
  SparseVector kept_;
  SparseVector discarded_;
  SparseVector scratch_;
};

}  // namespace

SparseVector SparReduceScatter(Comm& comm, const CommGroup& group,
                               std::span<const float> grad,
                               const SrsOptions& options,
                               ResidualStore* residuals) {
  SPARDL_CHECK_GT(options.k, 0u);
  SrsEngine engine(comm, group, grad.size(), options, residuals);
  // Initial block-wise local sparsification (partitioning phase).
  const BlockPartition& partition = engine.partition();
  TopKSelector selector;
  SparseVector discarded;
  {
    TraceScope scope(comm, Phase::kSparsify, "select-blocks");
    for (int b = 0; b < group.size(); ++b) {
      const GradIndex lo = partition.BlockStart(b);
      const GradIndex hi = partition.BlockEnd(b);
      selector.SelectDense(grad.subspan(lo, hi - lo), lo, engine.budget(),
                           &engine.block_state()[static_cast<size_t>(b)],
                           &discarded);
      if (residuals != nullptr) residuals->AddLocalDiscard(discarded);
    }
  }
  return engine.Run();
}

SparseVector SparReduceScatterOnSparse(Comm& comm, const CommGroup& group,
                                       const SparseVector& candidates,
                                       size_t n, const SrsOptions& options,
                                       ResidualStore* residuals) {
  SPARDL_CHECK_GT(options.k, 0u);
  SrsEngine engine(comm, group, n, options, residuals);
  const BlockPartition& partition = engine.partition();
  TopKSelector selector;
  SparseVector block_candidates;
  SparseVector discarded;
  {
    TraceScope scope(comm, Phase::kSparsify, "select-blocks");
    for (int b = 0; b < group.size(); ++b) {
      block_candidates.Clear();
      candidates.ExtractRange(partition.BlockStart(b), partition.BlockEnd(b),
                              &block_candidates);
      selector.SelectSparse(block_candidates, engine.budget(),
                            &engine.block_state()[static_cast<size_t>(b)],
                            &discarded);
      if (residuals != nullptr) residuals->AddLocalDiscard(discarded);
    }
  }
  return engine.Run();
}

}  // namespace spardl
