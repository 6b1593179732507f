#ifndef SPARDL_SPARSE_BLOCK_PARTITION_H_
#define SPARDL_SPARSE_BLOCK_PARTITION_H_

#include <cstddef>

#include "sparse/sparse_vector.h"

namespace spardl {

/// Partition of a flat gradient of `n` elements into `num_blocks` contiguous
/// blocks of equal width ceil(n / num_blocks); the final block may be short
/// (or empty when n < num_blocks). Uniform width keeps the index->block map
/// a single division, which every algorithm here uses on the hot path.
class BlockPartition {
 public:
  BlockPartition(size_t n, int num_blocks);

  size_t n() const { return n_; }
  int num_blocks() const { return num_blocks_; }
  size_t block_width() const { return width_; }

  GradIndex BlockStart(int block) const {
    const size_t start = static_cast<size_t>(block) * width_;
    return static_cast<GradIndex>(start < n_ ? start : n_);
  }
  GradIndex BlockEnd(int block) const { return BlockStart(block + 1); }
  size_t BlockSize(int block) const {
    return static_cast<size_t>(BlockEnd(block) - BlockStart(block));
  }

  int BlockOf(GradIndex index) const {
    SPARDL_DCHECK_LT(static_cast<size_t>(index), n_);
    return static_cast<int>(index / width_);
  }

  /// Per-block sparsification budget for a global budget of k entries:
  /// ceil(k / num_blocks), at least 1. The paper's "top-k/P per block".
  size_t PerBlockBudget(size_t k) const;

 private:
  size_t n_;
  int num_blocks_;
  size_t width_;
};

/// The Spar-Reduce-Scatter bag layout for one worker (paper §III-B), in
/// closed form.
///
/// Worker w's P blocks are arranged on a circle starting at block w; block
/// b sits at *offset* (b - w) mod P. Offset 0 (block w itself) forms the
/// preservation bag B0. Sending bag Bi (1 <= i <= l, l = ceil(log2 P))
/// holds the offsets [2^(i-1), min(2^i, P)): 2^(i-1) blocks, except the
/// last bag, which holds only the E = P - 2^(l-1) remaining blocks.
/// Transmission step s (1-based) sends bag B_{l-s+1} to worker w + 2^(l-s)
/// and receives the matching bag from worker w - 2^(l-s).
///
/// Before step s the worker holds the offsets [0, min(2^(l-s+1), P)), so
/// the bag it sends is the tail of what it holds. The bag it receives
/// covers the source's offsets [2^(l-s), min(2^(l-s+1), P)), which are the
/// receiver's offsets [0, min(2^(l-s), P - 2^(l-s))): blocks it still holds
/// (Theorem 1), in the same circular order.
class SrsBagLayout {
 public:
  /// The layout for `rank` in a group of `num_workers` (>= 1).
  SrsBagLayout(int num_workers, int rank);

  /// l = ceil(log2 P); the number of transmission steps (0 when P == 1).
  static int NumSteps(int num_workers);

  int num_workers() const { return num_workers_; }
  int rank() const { return rank_; }
  int num_steps() const { return num_steps_; }

  /// Offset of `block` on this worker's circle: (block - rank) mod P.
  int OffsetOf(int block) const {
    return (block - rank_ + num_workers_) % num_workers_;
  }

  /// Block at `offset` on this worker's circle: (rank + offset) mod P.
  int BlockAt(int offset) const { return (rank_ + offset) % num_workers_; }

  /// First offset of bag `bag` (0 = preservation).
  int BagBegin(int bag) const {
    SPARDL_DCHECK(bag >= 0 && bag <= num_steps_);
    return bag == 0 ? 0 : 1 << (bag - 1);
  }

  /// One past the last offset of bag `bag`: min(2^bag, P).
  int BagEnd(int bag) const {
    SPARDL_DCHECK(bag >= 0 && bag <= num_steps_);
    return bag == num_steps_ ? num_workers_ : 1 << bag;
  }

  /// The bag sent at transmission step `step` in [1, num_steps].
  int BagForStep(int step) const { return num_steps_ - step + 1; }

  /// Communication distance at `step`: 2^(l-step).
  int StepDistance(int step) const { return 1 << (num_steps_ - step); }

  /// Target worker at `step`: rank + distance (mod P).
  int SendPeer(int step) const {
    return (rank_ + StepDistance(step)) % num_workers_;
  }

  /// Source worker at `step`: rank - distance (mod P).
  int RecvPeer(int step) const {
    return (rank_ - StepDistance(step) % num_workers_ + num_workers_) %
           num_workers_;
  }

  /// Offsets still held just before `step` (1-based) are [0, this):
  /// min(2^(l-step+1), P). Step num_steps + 1 gives 1, the worker's own
  /// block.
  int HeldBeforeStep(int step) const {
    SPARDL_DCHECK(step >= 1 && step <= num_steps_ + 1);
    return BagEnd(num_steps_ - step + 1);
  }

  /// Offsets received at `step` are [0, this): the size of the bag the
  /// source sends, min(2^(l-step), P - 2^(l-step)).
  int ReceivedAtStep(int step) const {
    const int bag = BagForStep(step);
    return BagEnd(bag) - BagBegin(bag);
  }

 private:
  int num_workers_;
  int rank_;
  int num_steps_;
};

}  // namespace spardl

#endif  // SPARDL_SPARSE_BLOCK_PARTITION_H_
