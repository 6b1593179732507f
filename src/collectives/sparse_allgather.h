#ifndef SPARDL_COLLECTIVES_SPARSE_ALLGATHER_H_
#define SPARDL_COLLECTIVES_SPARSE_ALLGATHER_H_

#include "simnet/comm.h"
#include "sparse/part_list.h"

namespace spardl {

/// Bruck all-gather over a group (paper Fig. 3b; Bruck et al., TPDS'97).
///
/// Each group member contributes `mine`, a one-part list that carries the
/// wire words its owner declares for the part; every member returns the
/// group's list in position order. Works for *any* group size (this is
/// why SparDL chooses it) in ceil(log2 G) rounds with the bandwidth lower
/// bound: each worker receives exactly the G-1 other parts once, each
/// charged its declared words. Parts are forwarded as shared `PartList`s,
/// so the whole group holds each part once.
PartList BruckAllGather(Comm& comm, const CommGroup& group, PartList mine);

/// Recursive-doubling all-gather (paper Fig. 3a). Group size must be a
/// power of two; log2 G rounds, same bandwidth and result as Bruck.
PartList RecursiveDoublingAllGather(Comm& comm, const CommGroup& group,
                                    PartList mine);

}  // namespace spardl

#endif  // SPARDL_COLLECTIVES_SPARSE_ALLGATHER_H_
