#include "core/spar_reduce_scatter.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/quantize.h"
#include "sparse/topk.h"

namespace spardl {

namespace {

// Shared SRS engine: starts from this worker's non-empty blocks (already
// within budget), kept in a list ordered by their offset on the worker's
// circle (`SrsBagLayout`), and runs the l transmission steps. The list is
// the only per-block state: the bag sent at a step is its tail, and the
// bag received lands on its head in the same order, so the engine holds
// only the blocks that carry entries and never lays out another worker.
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
        budget_(partition_.PerBlockBudget(options.k)) {}

  const BlockPartition& partition() const { return partition_; }
  const SrsBagLayout& layout() const { return layout_; }
  size_t budget() const { return budget_; }

  // Appends the block at the next offset; empty blocks are dropped. Call
  // in offset order before Run().
  void AddBlock(SparseVector block) {
    if (!block.empty()) blocks_.push_back(std::move(block));
  }

  // Runs the transmission-with-sparsification phase and returns the block
  // owned by this group position.
  SparseVector Run() {
    const int steps = layout_.num_steps();
    for (int step = 1; step <= steps; ++step) {
      TraceScope step_scope(comm_, Phase::kSrs, "srs-step", step);
      const int bag = layout_.BagForStep(step);
      SPARDL_DCHECK(blocks_.empty() ||
                    OffsetOf(blocks_.back()) < layout_.HeldBeforeStep(step));
      // The bag is the list's tail: every held offset from BagBegin on.
      auto first_sent = std::partition_point(
          blocks_.begin(), blocks_.end(), [&](const SparseVector& block) {
            return OffsetOf(block) < layout_.BagBegin(bag);
          });
      if (options_.lazy_sparsify) {
        // Only the blocks about to leave get re-sparsified.
        TraceScope scope(comm_, Phase::kSparsify, "resparsify", step);
        for (auto it = first_sent; it != blocks_.end(); ++it) {
          SparsifyBlock(*it);
        }
      }
      // Ship the bag (one message per step, blocks in offset order),
      // optionally quantizing values on the wire.
      std::vector<SparseVector> outgoing(
          std::make_move_iterator(first_sent),
          std::make_move_iterator(blocks_.end()));
      blocks_.erase(first_sent, blocks_.end());
      size_t words_override = 0;
      if (options_.value_bits != 32) {
        for (SparseVector& block : outgoing) {
          QuantizeDequantize(&block, options_.value_bits, &discarded_);
          if (residuals_ != nullptr) {
            residuals_->AddCommDiscard(discarded_, 1.0f);
          }
          words_override +=
              QuantizedWireWords(block.size(), options_.value_bits);
        }
        // An empty block of the bag still carries its scale word.
        const size_t empty_blocks =
            static_cast<size_t>(layout_.BagEnd(bag) - layout_.BagBegin(bag)) -
            outgoing.size();
        words_override +=
            empty_blocks * QuantizedWireWords(0, options_.value_bits);
      }
      comm_.Send(group_.GlobalRank(layout_.SendPeer(step)),
                 Payload(std::move(outgoing)), /*tag=*/0, words_override);

      // Receive the matching bag: the source's non-empty blocks, in the
      // order of this worker's offsets [0, ReceivedAtStep).
      std::vector<SparseVector> incoming =
          comm_.RecvAs<std::vector<SparseVector>>(
              group_.GlobalRank(layout_.RecvPeer(step)));
      std::vector<SparseVector> merged;
      merged.reserve(blocks_.size() + incoming.size());
      auto held = blocks_.begin();
      for (SparseVector& block : incoming) {
        const int b = partition_.BlockOf(block.index(0));
        const int offset = layout_.OffsetOf(b);
        // Theorem 1: every received block is still held by the receiver,
        // on the offsets the layout reserves for the received bag.
        SPARDL_CHECK_LT(offset, layout_.ReceivedAtStep(step))
            << "Theorem 1 violated: group position " << group_.my_pos()
            << " received block " << b << " outside its received offsets";
        SPARDL_CHECK(block.IndicesWithin(partition_.BlockStart(b),
                                         partition_.BlockEnd(b)))
            << "received block " << b << " has out-of-range indices";
        while (held != blocks_.end() && OffsetOf(*held) < offset) {
          merged.push_back(std::move(*held++));
        }
        if (held != blocks_.end() && OffsetOf(*held) == offset) {
          MergeSumInPlace(&*held, block, &scratch_);
          merged.push_back(std::move(*held++));
        } else {
          merged.push_back(std::move(block));
        }
      }
      merged.insert(merged.end(), std::make_move_iterator(held),
                    std::make_move_iterator(blocks_.end()));
      blocks_ = std::move(merged);
      if (!options_.lazy_sparsify) {
        // Eager variant: re-sparsify every remaining block after summation.
        TraceScope scope(comm_, Phase::kSparsify, "resparsify", step);
        for (SparseVector& block : blocks_) SparsifyBlock(block);
      }
    }
    // Only the preservation block (offset 0) can remain; give it its final
    // selection.
    SPARDL_DCHECK_LE(blocks_.size(), 1u);
    if (blocks_.empty()) return SparseVector();
    SPARDL_DCHECK_EQ(OffsetOf(blocks_.front()), 0);
    SparsifyBlock(blocks_.front());
    return std::move(blocks_.front());
  }

 private:
  int OffsetOf(const SparseVector& block) const {
    return layout_.OffsetOf(partition_.BlockOf(block.index(0)));
  }

  void SparsifyBlock(SparseVector& block) {
    if (block.size() <= budget_) return;
    selector_.SelectSparse(block, budget_, &kept_, &discarded_);
    if (residuals_ != nullptr) {
      residuals_->AddCommDiscard(discarded_, 1.0f);
    }
    std::swap(block, kept_);
  }

  Comm& comm_;
  const CommGroup& group_;
  const SrsOptions& options_;
  ResidualStore* residuals_;
  BlockPartition partition_;
  SrsBagLayout layout_;
  size_t budget_;
  std::vector<SparseVector> blocks_;  // non-empty, by offset
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
  SparseVector kept;
  SparseVector discarded;
  {
    TraceScope scope(comm, Phase::kSparsify, "select-blocks");
    for (int offset = 0; offset < group.size(); ++offset) {
      const int b = engine.layout().BlockAt(offset);
      const GradIndex lo = partition.BlockStart(b);
      const GradIndex hi = partition.BlockEnd(b);
      selector.SelectDense(grad.subspan(lo, hi - lo), lo, engine.budget(),
                           &kept, &discarded);
      if (residuals != nullptr) residuals->AddLocalDiscard(discarded);
      engine.AddBlock(std::move(kept));
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
  SparseVector kept;
  SparseVector discarded;
  {
    TraceScope scope(comm, Phase::kSparsify, "select-blocks");
    for (int offset = 0; offset < group.size(); ++offset) {
      const int b = engine.layout().BlockAt(offset);
      block_candidates.Clear();
      candidates.ExtractRange(partition.BlockStart(b), partition.BlockEnd(b),
                              &block_candidates);
      selector.SelectSparse(block_candidates, engine.budget(), &kept,
                            &discarded);
      if (residuals != nullptr) residuals->AddLocalDiscard(discarded);
      engine.AddBlock(std::move(kept));
    }
  }
  return engine.Run();
}

}  // namespace spardl
