#ifndef SPARDL_BASELINES_TOPK_ALLGATHER_H_
#define SPARDL_BASELINES_TOPK_ALLGATHER_H_

#include "baselines/baseline_common.h"

namespace spardl {

/// TopkA (SparCML's sparse all-gather all-reduce; Renggli et al., SC'19).
///
/// Every worker all-gathers its full local top-k and sums the P sparse
/// vectors locally. This sidesteps the SGA dilemma entirely — nothing is
/// ever re-sparsified in flight — at the price of bandwidth proportional to
/// P: each worker receives 2(P-1)k words (Table I row 1). Latency is
/// ceil(log2 P) (recursive doubling when P is a power of two, Bruck
/// otherwise).
class TopkAllGather final : public BaselineBase {
 public:
  explicit TopkAllGather(const AlgorithmConfig& config)
      : BaselineBase(config, "TopkA", ResidualMode::kLocal) {}

 private:
  SparseVector Core(Comm& comm, SparseVector local) override;
};

}  // namespace spardl

#endif  // SPARDL_BASELINES_TOPK_ALLGATHER_H_
