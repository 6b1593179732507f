#ifndef SPARDL_CORE_SPAR_REDUCE_SCATTER_H_
#define SPARDL_CORE_SPAR_REDUCE_SCATTER_H_

#include <span>

#include "core/residual.h"
#include "simnet/comm.h"
#include "sparse/block_partition.h"
#include "sparse/sparse_vector.h"

namespace spardl {

/// Options for Spar-Reduce-Scatter.
struct SrsOptions {
  /// Global sparse budget k over the full gradient; each of the group's G
  /// blocks keeps ceil(k / G) entries.
  size_t k = 0;

  /// The paper's "Optimization for SRS" (§III-B): when true (the SparDL
  /// default), blocks are re-sparsified only right before they are sent (or
  /// kept, at the very end) rather than after every summation, saving top-k
  /// passes without changing the wire volume.
  bool lazy_sparsify = true;

  /// Value quantization width for transmitted blocks (32 = off; 4/8/16
  /// supported). Quantization error is collected into the residual store
  /// at full weight, so error feedback covers it. The paper's §VI
  /// "combining with quantization" extension.
  int value_bits = 32;
};

/// Spar-Reduce-Scatter (paper §III-B, Fig. 5).
///
/// Runs over `group` (a whole cluster or one SAG team). The gradient of
/// length n is split into G = group.size() blocks; after l = ceil(log2 G)
/// transmission steps with block-wise re-sparsification, position p of the
/// group holds the *sum over the group* of block p, sparsified to
/// ceil(k / G) entries — the reduce-scatter result — while never letting
/// any message grow beyond its sparse budget (the SGA fix).
///
/// Two entry points share the engine:
///  * `SparReduceScatter` starts from this worker's dense gradient and
///    performs the initial block-wise local top-(k/G) selection (discards
///    go to residuals->AddLocalDiscard).
///  * `SparReduceScatterOnSparse` starts from an already-sparse candidate
///    vector (the per-update benches' O(k) path).
///
/// Both collect every in-transmission discard via
/// residuals->AddCommDiscard(..., 1.0f). `residuals` may be null.
SparseVector SparReduceScatter(Comm& comm, const CommGroup& group,
                               std::span<const float> grad,
                               const SrsOptions& options,
                               ResidualStore* residuals);

SparseVector SparReduceScatterOnSparse(Comm& comm, const CommGroup& group,
                                       const SparseVector& candidates,
                                       size_t n, const SrsOptions& options,
                                       ResidualStore* residuals);

}  // namespace spardl

#endif  // SPARDL_CORE_SPAR_REDUCE_SCATTER_H_
