#include "baselines/dense_allreduce.h"

#include <vector>

#include "collectives/dense_collectives.h"
#include "common/logging.h"

namespace spardl {

SparseVector DenseAllReduce::Run(Comm& comm, std::span<float> grad) {
  SPARDL_CHECK_EQ(grad.size(), n_);
  SPARDL_CHECK_EQ(comm.size(), num_workers_);
  const CommGroup world = CommGroup::World(comm);
  DenseAllReduceAuto(comm, world, grad);
  return SparseVector::FromDense(grad);
}

SparseVector DenseAllReduce::RunOnSparse(Comm& comm,
                                         const SparseVector& candidates) {
  // Materialise the dense vector the candidates stand in for. Only
  // sensible for moderate n; paper-scale profiles never bench the dense
  // path this way (its cost is closed-form). Cold call site: out-of-range
  // candidate indices are caught in NDEBUG by AddToDense's O(1) boundary
  // CHECK.
  std::vector<float> dense(n_, 0.0f);
  candidates.AddToDense(dense);
  return Run(comm, dense);
}

}  // namespace spardl
