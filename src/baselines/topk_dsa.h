#ifndef SPARDL_BASELINES_TOPK_DSA_H_
#define SPARDL_BASELINES_TOPK_DSA_H_

#include "baselines/baseline_common.h"
#include "sparse/block_partition.h"

namespace spardl {

/// TopkDSA (SparCML's split all-reduce; Renggli et al., SC'19).
///
/// Reduce-scatter by *direct send*: each worker splits its local top-k by
/// destination region and ships each split straight to the region owner
/// (P-1 messages -> Theta(P) latency, Table I row 2). Owners sum whatever
/// arrives without re-sparsifying, so the SGA dilemma is allowed to happen;
/// the closing all-gather switches a region to dense encoding once its COO
/// form would exceed the dense block (the `[4(P-1)/P k, (P-1)/P (2k+n)]`
/// bandwidth range of Table I).
class TopkDsa final : public BaselineBase {
 public:
  explicit TopkDsa(const AlgorithmConfig& config)
      : BaselineBase(config, "TopkDSA", ResidualMode::kLocal),
        partition_(config.n, config.num_workers) {}

 private:
  SparseVector Core(Comm& comm, SparseVector local) override;

  BlockPartition partition_;
};

}  // namespace spardl

#endif  // SPARDL_BASELINES_TOPK_DSA_H_
