#ifndef SPARDL_BASELINES_GTOPK_H_
#define SPARDL_BASELINES_GTOPK_H_

#include "baselines/baseline_common.h"

namespace spardl {

/// gTopk (Shi et al., ICDCS'19): global top-k via a binomial reduction
/// tree followed by a binomial broadcast tree.
///
/// At every reduction level the receiving worker merges its partner's
/// top-k, re-selects top-k (solving SGA) and stores the discards; the root
/// then broadcasts the global top-k back down. Both trees move k entries
/// per level, giving the ~4 ceil(log2 P) k beta bandwidth of Table I
/// row 3.
///
/// The paper's formulation (and its evaluation, P = 8 only) assumes a
/// power-of-two P. We generalise with the standard fold used by
/// non-power-of-two recursive collectives (the same family as
/// Spar-All-Gather's binary-blocks handling): the r = P - 2^floor(log2 P)
/// extra workers first fold their top-k into workers 0..r-1, the
/// power-of-two tree runs over workers 0..2^floor(log2 P)-1, and the fold
/// partners ship the result back out after the broadcast. One extra
/// exchange round; worker sets stay disjoint, so residual crediting is
/// unchanged.
class GTopk final : public BaselineBase {
 public:
  explicit GTopk(const AlgorithmConfig& config)
      : BaselineBase(config, "gTopk", ResidualMode::kPartial) {}

 private:
  SparseVector Core(Comm& comm, SparseVector local) override;
};

}  // namespace spardl

#endif  // SPARDL_BASELINES_GTOPK_H_
