#include "baselines/topk_allgather.h"

#include <utility>
#include <vector>

#include "collectives/sparse_allgather.h"

namespace spardl {

SparseVector TopkAllGather::Core(Comm& comm, SparseVector local) {
  const CommGroup world = CommGroup::World(comm);
  const int p = comm.size();
  std::vector<SparseVector> parts;
  if ((p & (p - 1)) == 0) {
    parts = RecursiveDoublingAllGather(comm, world, std::move(local));
  } else {
    parts = BruckAllGather(comm, world, std::move(local));
  }
  // Fixed rank-order summation keeps every replica bit-identical.
  return SumAll(parts);
}

}  // namespace spardl
