#include "baselines/registry.h"

#include <algorithm>
#include <iterator>
#include <optional>

#include "baselines/dense_allreduce.h"
#include "baselines/gtopk.h"
#include "baselines/oktopk.h"
#include "baselines/topk_allgather.h"
#include "baselines/topk_dsa.h"
#include "common/strings.h"
#include "core/spardl.h"

namespace spardl {

namespace {

template <typename T>
std::unique_ptr<SparseAllReduce> Construct(const AlgorithmConfig& config) {
  return std::make_unique<T>(config);
}

struct Method {
  std::string_view name;
  std::unique_ptr<SparseAllReduce> (*construct)(const AlgorithmConfig&);
  /// The SAG variant an alias forces over `AlgorithmConfig::sag_mode`.
  std::optional<SagMode> sag_mode;
};

constexpr Method kMethods[] = {
    {"spardl", Construct<SparDL>, std::nullopt},
    {"spardl-rsag", Construct<SparDL>, SagMode::kRecursive},
    {"spardl-bsag", Construct<SparDL>, SagMode::kBruck},
    {"topka", Construct<TopkAllGather>, std::nullopt},
    {"topkdsa", Construct<TopkDsa>, std::nullopt},
    {"gtopk", Construct<GTopk>, std::nullopt},
    {"oktopk", Construct<OkTopk>, std::nullopt},
    {"dense", Construct<DenseAllReduce>, std::nullopt},
};

}  // namespace

Result<std::unique_ptr<SparseAllReduce>> CreateAlgorithm(
    std::string_view name, const AlgorithmConfig& config) {
  const Method* method =
      std::find_if(std::begin(kMethods), std::end(kMethods),
                   [name](const Method& m) { return m.name == name; });
  if (method == std::end(kMethods)) {
    return Status::NotFound(
        StrFormat("unknown algorithm '%.*s'", static_cast<int>(name.size()),
                  name.data()));
  }
  AlgorithmConfig resolved = config;
  if (method->sag_mode.has_value()) resolved.sag_mode = *method->sag_mode;
  SPARDL_RETURN_NOT_OK(resolved.Validate());
  return method->construct(resolved);
}

std::vector<std::string> AlgorithmNames() {
  return {"topkdsa", "topka", "gtopk", "oktopk", "spardl", "dense"};
}

}  // namespace spardl
