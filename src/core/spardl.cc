#include "core/spardl.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "collectives/sparse_allgather.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/quantize.h"
#include "core/spar_all_gather.h"

namespace spardl {

namespace {

size_t TargetL(const AlgorithmConfig& config) {
  // L(k, d, P) = d*k/P: the per-block budget of the team-level partition.
  const size_t team_size =
      static_cast<size_t>(config.num_workers / config.num_teams);
  return std::max<size_t>(1, (config.k + team_size - 1) / team_size);
}

// kAuto picks R-SAG for a power-of-two d, B-SAG otherwise; d = 1 runs no
// SAG at all.
std::optional<SagMode> ResolveSag(const AlgorithmConfig& config) {
  if (config.num_teams == 1) return std::nullopt;
  if (config.sag_mode != SagMode::kAuto) return config.sag_mode;
  return std::has_single_bit(static_cast<unsigned>(config.num_teams))
             ? SagMode::kRecursive
             : SagMode::kBruck;
}

}  // namespace

SparDL::SparDL(const AlgorithmConfig& config)
    : config_(config),
      resolved_sag_(ResolveSag(config)),
      srs_options_{.k = config.k, .value_bits = config.value_bits},
      residuals_(config.residual_mode == ResidualMode::kNone ? 0 : config.n,
                 config.residual_mode.value_or(ResidualMode::kGlobal)) {
  if (resolved_sag_ == SagMode::kBruck) {
    adjuster_.emplace(config_.k, config_.num_workers, config_.num_teams);
  }
  if (!resolved_sag_.has_value()) {
    name_ = "SparDL";
  } else {
    name_ = StrFormat(
        "SparDL(%s, d=%d)",
        *resolved_sag_ == SagMode::kRecursive ? "R-SAG" : "B-SAG",
        config_.num_teams);
  }
  // d = 1 has one team under any policy (the identity layout); tagging
  // the name would suggest a placement effect that cannot exist.
  const PlacementPolicy policy = config_.placement;
  if (config_.num_teams > 1 && policy != PlacementPolicy::kContiguous) {
    name_ += StrFormat(
        "+%.*s", static_cast<int>(PlacementPolicyName(policy).size()),
        PlacementPolicyName(policy).data());
  }
  if (config_.value_bits != 32) {
    name_ += StrFormat("+q%d", config_.value_bits);
  }
}

SparseVector SparDL::Synchronize(Comm& comm, const CommGroup& team_group,
                                 SparseVector block) {
  if (resolved_sag_.has_value()) {
    const CommGroup cross =
        CommGroup::CrossTeam(comm, config_.num_teams, config_.placement);
    const size_t target_l = TargetL(config_);
    if (*resolved_sag_ == SagMode::kRecursive) {
      TraceScope scope(comm, Phase::kSag, "rsag");
      block = RSag(comm, cross, std::move(block), target_l, &residuals_);
    } else {
      TraceScope scope(comm, Phase::kSag, "bsag");
      block = BSag(comm, cross, std::move(block), target_l, &*adjuster_,
                   &residuals_, &last_bsag_union_);
    }
  }

  // Optional value quantization of the block every other worker will
  // receive. Deterministic, so replicas stay identical; the error is
  // credited to residuals (1/d weight when SAG replicated the block).
  std::optional<PartWireWords> wire_cost;
  if (config_.value_bits != 32) {
    SparseVector quantization_error;
    QuantizeDequantize(&block, config_.value_bits, &quantization_error);
    const float scale =
        1.0f / static_cast<float>(resolved_sag_ ? config_.num_teams : 1);
    residuals_.AddCommDiscard(quantization_error, scale);
    const int bits = config_.value_bits;
    wire_cost = [bits](const SparseVector& part, int) {
      return QuantizedWireWords(part.size(), bits);
    };
  }

  // Final intra-team Bruck all-gather; blocks have disjoint ascending
  // ranges, so concatenation yields the global gradient.
  GatheredParts gathered;
  {
    TraceScope scope(comm, Phase::kAllGather, "allgather");
    gathered = BruckAllGather(comm, team_group, std::move(block),
                              wire_cost.has_value() ? &*wire_cost : nullptr);
  }
  SparseVector final_gradient = ConcatDisjoint(gathered.parts);
  {
    TraceScope scope(comm, Phase::kResidual, "residual-update");
    residuals_.FinishIteration(final_gradient);
  }
  return final_gradient;
}

SparseVector SparDL::Run(Comm& comm, std::span<float> grad) {
  SPARDL_CHECK_EQ(grad.size(), config_.n);
  SPARDL_CHECK_EQ(comm.size(), config_.num_workers);
  TraceScope envelope(comm, Phase::kCollective, "spardl-allreduce");
  residuals_.ApplyAndReset(grad);

  const CommGroup team_group =
      CommGroup::Team(comm, config_.num_teams, config_.placement);
  SparseVector block =
      SparReduceScatter(comm, team_group, grad, srs_options_, &residuals_);
  return Synchronize(comm, team_group, std::move(block));
}

SparseVector SparDL::RunOnSparse(Comm& comm, const SparseVector& candidates) {
  SPARDL_CHECK_EQ(comm.size(), config_.num_workers);
  TraceScope envelope(comm, Phase::kCollective, "spardl-allreduce");
  const CommGroup team_group =
      CommGroup::Team(comm, config_.num_teams, config_.placement);
  SparseVector block = SparReduceScatterOnSparse(
      comm, team_group, candidates, config_.n, srs_options_, &residuals_);
  return Synchronize(comm, team_group, std::move(block));
}

}  // namespace spardl
