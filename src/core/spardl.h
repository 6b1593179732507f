#ifndef SPARDL_CORE_SPARDL_H_
#define SPARDL_CORE_SPARDL_H_

#include <optional>
#include <string>

#include "core/chunk_adjuster.h"
#include "core/residual.h"
#include "core/spar_reduce_scatter.h"
#include "core/sparse_allreduce.h"

namespace spardl {

/// The SparDL sparse All-Reduce framework (paper Algorithm 1):
/// Spar-Reduce-Scatter within each team, Spar-All-Gather across teams,
/// Bruck all-gather within each team, with global residual collection
/// throughout.
///
/// One instance per worker; holds the worker's residual store and (for
/// B-SAG) the persistent compression-ratio controller.
class SparDL : public SparseAllReduce {
 public:
  /// `config` must pass `AlgorithmConfig::Validate` (`CreateAlgorithm`
  /// checks it). An unset residual_mode means GRES, the paper's default.
  explicit SparDL(const AlgorithmConfig& config);

  SparseVector Run(Comm& comm, std::span<float> grad) override;
  SparseVector RunOnSparse(Comm& comm,
                           const SparseVector& candidates) override;
  std::string_view name() const override { return name_; }

  const ResidualStore& residuals() const { return residuals_; }
  ResidualStore& residuals() { return residuals_; }

  /// Union size observed by the last B-SAG round (Fig. 7 series); 0 when
  /// SAG is disabled or R-SAG is active.
  size_t last_bsag_union() const { return last_bsag_union_; }

  /// The resolved SAG variant after kAuto resolution (nullopt when d = 1).
  std::optional<SagMode> resolved_sag() const { return resolved_sag_; }

 private:
  /// The communication pipeline shared by Run and RunOnSparse; `block` is
  /// this worker's SRS output over `team_group`.
  SparseVector Synchronize(Comm& comm, const CommGroup& team_group,
                           SparseVector block);

  AlgorithmConfig config_;
  std::optional<SagMode> resolved_sag_;
  /// SparDL always runs the §III-B lazy SRS; `SrsOptions` keeps the eager
  /// variant for the `ablation_srs` comparison.
  SrsOptions srs_options_;
  ResidualStore residuals_;
  std::optional<ChunkAdjuster> adjuster_;
  std::string name_;
  size_t last_bsag_union_ = 0;
};

}  // namespace spardl

#endif  // SPARDL_CORE_SPARDL_H_
