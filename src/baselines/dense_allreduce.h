#ifndef SPARDL_BASELINES_DENSE_ALLREDUCE_H_
#define SPARDL_BASELINES_DENSE_ALLREDUCE_H_

#include "core/sparse_allreduce.h"

namespace spardl {

/// The no-compression reference: a dense all-reduce (Rabenseifner for
/// power-of-two P, ring otherwise) wrapped in the SparseAllReduce
/// interface. Used as the S-SGD upper-bound baseline in convergence
/// experiments and as the bandwidth yardstick in cost tables.
class DenseAllReduce final : public SparseAllReduce {
 public:
  /// Reads n and P; `config` must pass `AlgorithmConfig::Validate`.
  explicit DenseAllReduce(const AlgorithmConfig& config)
      : n_(config.n), num_workers_(config.num_workers) {}

  SparseVector Run(Comm& comm, std::span<float> grad) override;
  SparseVector RunOnSparse(Comm& comm,
                           const SparseVector& candidates) override;
  std::string_view name() const override { return "Dense"; }

 private:
  size_t n_;
  int num_workers_;
};

}  // namespace spardl

#endif  // SPARDL_BASELINES_DENSE_ALLREDUCE_H_
