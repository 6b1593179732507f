#include "sparse/block_partition.h"

#include <algorithm>

namespace spardl {

BlockPartition::BlockPartition(size_t n, int num_blocks)
    : n_(n), num_blocks_(num_blocks) {
  SPARDL_CHECK_GT(n, 0u);
  SPARDL_CHECK_GT(num_blocks, 0);
  width_ = (n + static_cast<size_t>(num_blocks) - 1) /
           static_cast<size_t>(num_blocks);
}

size_t BlockPartition::PerBlockBudget(size_t k) const {
  const size_t per_block =
      (k + static_cast<size_t>(num_blocks_) - 1) /
      static_cast<size_t>(num_blocks_);
  return std::max<size_t>(1, per_block);
}

int SrsBagLayout::NumSteps(int num_workers) {
  SPARDL_CHECK_GE(num_workers, 1);
  int steps = 0;
  while ((1 << steps) < num_workers) ++steps;
  return steps;
}

SrsBagLayout::SrsBagLayout(int num_workers, int rank)
    : num_workers_(num_workers),
      rank_(rank),
      num_steps_(NumSteps(num_workers)) {
  SPARDL_CHECK_GE(rank, 0);
  SPARDL_CHECK_LT(rank, num_workers);
}

}  // namespace spardl
