#ifndef SPARDL_BASELINES_REGISTRY_H_
#define SPARDL_BASELINES_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/sparse_allreduce.h"

namespace spardl {

/// Builds the method registered under `name`: "spardl", "topka",
/// "topkdsa", "gtopk", "oktopk" or "dense" (case-sensitive), or one of
/// the "spardl-rsag"/"spardl-bsag" aliases, which force SparDL's SAG
/// variant (the d-sweep benches need them).
///
/// An unknown name is `NotFound` whatever the config. Otherwise `config`
/// is validated once, by `AlgorithmConfig::Validate`, whatever the
/// method: every invalid field surfaces as `InvalidArgument` and never
/// reaches a `SPARDL_CHECK` inside the communicator-group machinery.
Result<std::unique_ptr<SparseAllReduce>> CreateAlgorithm(
    std::string_view name, const AlgorithmConfig& config);

/// All registered method names, in the paper's comparison order.
std::vector<std::string> AlgorithmNames();

}  // namespace spardl

#endif  // SPARDL_BASELINES_REGISTRY_H_
