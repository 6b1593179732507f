#include "baselines/topk_allgather.h"

#include <utility>

#include "collectives/sparse_allgather.h"

namespace spardl {

SparseVector TopkAllGather::Core(Comm& comm, SparseVector local) {
  const CommGroup world = CommGroup::World(comm);
  const int p = comm.size();
  PartList mine(std::move(local));
  const PartList gathered =
      (p & (p - 1)) == 0
          ? RecursiveDoublingAllGather(comm, world, std::move(mine))
          : BruckAllGather(comm, world, std::move(mine));
  // Fixed rank-order summation keeps every replica bit-identical.
  return SumAll(gathered);
}

}  // namespace spardl
