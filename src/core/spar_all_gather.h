#ifndef SPARDL_CORE_SPAR_ALL_GATHER_H_
#define SPARDL_CORE_SPAR_ALL_GATHER_H_

#include <cstddef>

#include "core/chunk_adjuster.h"
#include "core/residual.h"
#include "simnet/comm.h"
#include "sparse/sparse_vector.h"

namespace spardl {

/// Spar-All-Gather (paper §III-D): synchronises the reduce-scattered block
/// across the d teams so that all workers sharing a team position hold the
/// same L(k, d, P) = d*k/P sparse gradients.
///
/// `cross_team_group` is the group of the d workers at this worker's team
/// position (`CommGroup::CrossTeam`); `block` is this worker's
/// SRS output; `target_l` is L(k, d, P).

/// R-SAG — recursive-doubling variant, for d a power of two. Each of the
/// log2 d steps exchanges the full block with the partner team's worker,
/// merges, and re-selects top-L. Both exchange sides discard identical
/// sets, and after step s there are 2^s identical copies cluster-wide, so
/// discards are credited at scale 2^-s (the paper states 1/2, which is this
/// rule at its only evaluated depth, d = 2).
SparseVector RSag(Comm& comm, const CommGroup& cross_team_group,
                  SparseVector block, size_t target_l,
                  ResidualStore* residuals);

/// B-SAG — Bruck-based variant for arbitrary d. Selects top-h before the
/// inter-team Bruck all-gather (h driven by `adjuster`, Algorithm 2), sums
/// the d gathered chunks in team order (identical on every participant, so
/// consistency is preserved — the reason per-step selection cannot be used
/// with Bruck, §III-D2), then applies the final top-L selection whose
/// discards are credited at scale 1/d. Feeds the observed union size back
/// into `adjuster`. When `observed_union` is non-null it receives the
/// union size after summation (the Fig. 7 series).
SparseVector BSag(Comm& comm, const CommGroup& cross_team_group,
                  SparseVector block, size_t target_l,
                  ChunkAdjuster* adjuster, ResidualStore* residuals,
                  size_t* observed_union = nullptr);

}  // namespace spardl

#endif  // SPARDL_CORE_SPAR_ALL_GATHER_H_
