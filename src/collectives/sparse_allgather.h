#ifndef SPARDL_COLLECTIVES_SPARSE_ALLGATHER_H_
#define SPARDL_COLLECTIVES_SPARSE_ALLGATHER_H_

#include <functional>
#include <vector>

#include "simnet/comm.h"
#include "sparse/part_list.h"
#include "sparse/sparse_vector.h"

namespace spardl {

/// Custom wire-cost hook: words charged for shipping `part`, which belongs
/// to group position `position`. Lets TopkDSA charge a densified block as
/// `block_width` dense words when that is cheaper than 2 * nnz COO words.
using PartWireWords = std::function<size_t(const SparseVector& part,
                                           int position)>;

/// What a sparse all-gather returns: `parts[i]` is the part of group
/// position i. The parts live in `list`, which shares them with every
/// other member's list, and stay valid while it lives.
struct GatheredParts {
  std::vector<const SparseVector*> parts;
  PartList list;
};

/// Bruck all-gather over a group (paper Fig. 3b; Bruck et al., TPDS'97).
///
/// Each group member contributes one sparse part; every member returns the
/// full list. Works for *any* group size (this is why SparDL chooses it)
/// in ceil(log2 G) rounds with the bandwidth lower bound: each worker
/// receives exactly the G-1 other parts once. Parts are forwarded as
/// shared `PartList`s, so the whole group holds each part once.
GatheredParts BruckAllGather(Comm& comm, const CommGroup& group,
                             SparseVector mine,
                             const PartWireWords* wire_cost = nullptr);

/// Recursive-doubling all-gather (paper Fig. 3a). Group size must be a
/// power of two; log2 G rounds, same bandwidth as Bruck.
GatheredParts RecursiveDoublingAllGather(Comm& comm, const CommGroup& group,
                                         SparseVector mine);

/// Bruck all-gather of one 32-bit scalar per member (chunk-size exchange,
/// as real MPI sparse all-gathers need before posting uneven receives).
/// result[i] = value contributed by group position i.
std::vector<uint32_t> BruckAllGatherCounts(Comm& comm, const CommGroup& group,
                                           uint32_t mine);

}  // namespace spardl

#endif  // SPARDL_COLLECTIVES_SPARSE_ALLGATHER_H_
