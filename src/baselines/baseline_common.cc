#include "baselines/baseline_common.h"

#include <utility>

#include "common/logging.h"

namespace spardl {

BaselineBase::BaselineBase(const AlgorithmConfig& config, std::string name,
                           ResidualMode natural_residual_mode)
    : n_(config.n),
      k_(config.k),
      num_workers_(config.num_workers),
      residuals_(config.residual_mode == ResidualMode::kNone ? 0 : config.n,
                 config.residual_mode.value_or(natural_residual_mode)),
      name_(std::move(name)) {}

SparseVector BaselineBase::LocalSelectDense(std::span<const float> grad) {
  SparseVector kept;
  SparseVector discarded;
  selector_.SelectDense(grad, 0, k_, &kept, &discarded);
  residuals_.AddLocalDiscard(discarded);
  return kept;
}

SparseVector BaselineBase::LocalSelectSparse(const SparseVector& candidates) {
  SparseVector kept;
  SparseVector discarded;
  selector_.SelectSparse(candidates, k_, &kept, &discarded);
  residuals_.AddLocalDiscard(discarded);
  return kept;
}

SparseVector BaselineBase::Run(Comm& comm, std::span<float> grad) {
  SPARDL_CHECK_EQ(grad.size(), n_);
  SPARDL_CHECK_EQ(comm.size(), num_workers_);
  residuals_.ApplyAndReset(grad);
  SparseVector local;
  {
    TraceScope scope(comm, Phase::kSparsify, "local-select");
    local = LocalSelectDense(grad);
  }
  SparseVector final_gradient;
  {
    TraceScope scope(comm, Phase::kCollective, "baseline-core");
    final_gradient = Core(comm, std::move(local));
  }
  {
    TraceScope scope(comm, Phase::kResidual, "residual-update");
    residuals_.FinishIteration(final_gradient);
  }
  return final_gradient;
}

SparseVector BaselineBase::RunOnSparse(Comm& comm,
                                       const SparseVector& candidates) {
  SPARDL_CHECK_EQ(comm.size(), num_workers_);
  SparseVector local;
  {
    TraceScope scope(comm, Phase::kSparsify, "local-select");
    local = LocalSelectSparse(candidates);
  }
  SparseVector final_gradient;
  {
    TraceScope scope(comm, Phase::kCollective, "baseline-core");
    final_gradient = Core(comm, std::move(local));
  }
  {
    TraceScope scope(comm, Phase::kResidual, "residual-update");
    residuals_.FinishIteration(final_gradient);
  }
  return final_gradient;
}

}  // namespace spardl
