#include "core/sparse_allreduce.h"

#include <bit>
#include <limits>

#include "common/strings.h"
#include "core/quantize.h"

namespace spardl {

Status AlgorithmConfig::Validate() const {
  if (n == 0) return Status::InvalidArgument("n must be positive");
  // Every index in [0, n) and Ok-Topk's region end at n are GradIndex.
  constexpr size_t kMaxN = std::numeric_limits<GradIndex>::max();
  if (n > kMaxN) {
    return Status::InvalidArgument(
        StrFormat("n must be at most %zu (32-bit gradient indices); got %zu",
                  kMaxN, n));
  }
  if (k == 0 || k > n) {
    return Status::InvalidArgument(
        StrFormat("k must be in [1, n]; got k=%zu n=%zu", k, n));
  }
  if (num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (num_teams <= 0) {
    return Status::InvalidArgument("num_teams must be positive");
  }
  if (num_workers % num_teams != 0) {
    return Status::InvalidArgument(
        StrFormat("num_teams (%d) must divide num_workers (%d)", num_teams,
                  num_workers));
  }
  if (sag_mode == SagMode::kRecursive &&
      !std::has_single_bit(static_cast<unsigned>(num_teams))) {
    return Status::InvalidArgument(
        StrFormat("R-SAG requires a power-of-two team count; got %d",
                  num_teams));
  }
  if (!IsSupportedQuantization(value_bits)) {
    return Status::InvalidArgument(
        StrFormat("value_bits must be 4, 8, 16 or 32; got %d", value_bits));
  }
  return Status::OK();
}

}  // namespace spardl
