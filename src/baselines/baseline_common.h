#ifndef SPARDL_BASELINES_BASELINE_COMMON_H_
#define SPARDL_BASELINES_BASELINE_COMMON_H_

#include <string>

#include "core/residual.h"
#include "core/sparse_allreduce.h"
#include "sparse/topk.h"

namespace spardl {

/// Skeleton shared by the baselines: error feedback + a global local top-k
/// selection feeding a method-specific communication core.
///
/// Subclasses implement `Core`, which must return the same global gradient
/// on every worker.
class BaselineBase : public SparseAllReduce {
 public:
  SparseVector Run(Comm& comm, std::span<float> grad) final;
  SparseVector RunOnSparse(Comm& comm,
                           const SparseVector& candidates) final;
  std::string_view name() const final { return name_; }

  const ResidualStore& residuals() const { return residuals_; }
  ResidualStore& residuals() { return residuals_; }

 protected:
  /// `config` must pass `AlgorithmConfig::Validate`; an unset
  /// residual_mode means `natural_residual_mode`, the method's policy in
  /// the paper's classification.
  BaselineBase(const AlgorithmConfig& config, std::string name,
               ResidualMode natural_residual_mode);

  /// Method-specific local selection from the (residual-compensated) dense
  /// gradient. The default keeps the global top-k and records discards as
  /// local residuals; Ok-Topk overrides this with threshold pruning.
  virtual SparseVector LocalSelectDense(std::span<const float> grad);
  virtual SparseVector LocalSelectSparse(const SparseVector& candidates);

  /// The communication core; consumes this worker's selected gradient.
  virtual SparseVector Core(Comm& comm, SparseVector local) = 0;

  /// Dense gradient length n, global budget k and cluster size P.
  const size_t n_;
  const size_t k_;
  const int num_workers_;
  ResidualStore residuals_;
  TopKSelector selector_;

 private:
  std::string name_;
};

}  // namespace spardl

#endif  // SPARDL_BASELINES_BASELINE_COMMON_H_
