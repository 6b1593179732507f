#include "baselines/topk_dsa.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "collectives/sparse_allgather.h"
#include "common/logging.h"

namespace spardl {

SparseVector TopkDsa::Core(Comm& comm, SparseVector local) {
  const int p = comm.size();
  const int rank = comm.rank();
  const CommGroup world = CommGroup::World(comm);

  // Phase 1: direct-send reduce-scatter. Ship each region's slice straight
  // to its owner; empty slices are sent too (the real MPI implementation
  // posts the message regardless, and the paper charges P*alpha).
  SparseVector my_region;
  local.ExtractRange(partition_.BlockStart(rank), partition_.BlockEnd(rank),
                     &my_region);
  for (int offset = 1; offset < p; ++offset) {
    const int dst = (rank + offset) % p;
    SparseVector slice;
    local.ExtractRange(partition_.BlockStart(dst), partition_.BlockEnd(dst),
                       &slice);
    comm.Send(dst, Payload(std::move(slice)));
  }
  // Deterministic accumulation order: by source rank offset. No
  // re-sparsification — TopkDSA lets the region densify (SGA).
  SparseVector scratch;
  for (int offset = 1; offset < p; ++offset) {
    const int src = (rank - offset + p) % p;
    SparseVector slice = comm.RecvAs<SparseVector>(src);
    SPARDL_DCHECK(slice.IndicesWithin(partition_.BlockStart(rank),
                                      partition_.BlockEnd(rank)));
    MergeSumInPlace(&my_region, slice, &scratch);
  }

  // Phase 2: all-gather of the (possibly dense-ish) regions. A region
  // whose COO encoding exceeds its dense width ships as dense words.
  const size_t wire_words =
      std::min(my_region.WireWords(), partition_.BlockSize(rank));
  return ConcatDisjoint(
      BruckAllGather(comm, world, PartList(std::move(my_region), wire_words)));
}

}  // namespace spardl
