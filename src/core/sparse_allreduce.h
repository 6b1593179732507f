#ifndef SPARDL_CORE_SPARSE_ALLREDUCE_H_
#define SPARDL_CORE_SPARSE_ALLREDUCE_H_

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "common/status.h"
#include "core/residual.h"
#include "simnet/comm.h"
#include "sparse/sparse_vector.h"
#include "topo/placement.h"

namespace spardl {

/// Which Spar-All-Gather variant synchronises SparDL's d teams.
enum class SagMode {
  /// R-SAG when d is a power of two, B-SAG otherwise (the paper's rule).
  kAuto,
  /// Recursive-doubling SAG; requires d to be a power of two.
  kRecursive,
  /// Bruck-based SAG with the Algorithm-2 h controller; any d.
  kBruck,
};

/// The one input every sparse All-Reduce method is built from (see
/// `CreateAlgorithm`): SparDL (Algorithm 1) and the four Table I
/// baselines all take n, k and P; SparDL also reads the team fields and
/// `value_bits`. `Validate` checks every field for every method.
struct AlgorithmConfig {
  /// Dense gradient length n.
  size_t n = 0;
  /// Global sparse budget k (number of entries). Typical: 0.01 * n.
  size_t k = 0;
  /// Cluster size P.
  int num_workers = 0;
  /// SparDL's team count d; must divide P. d = 1 disables SAG (plain
  /// SparDL).
  int num_teams = 1;
  SagMode sag_mode = SagMode::kAuto;
  /// How the d teams are laid out over the fabric. The cluster plans the
  /// layout from its own fabric (`Network::TeamLayout`); `kRackLocal`
  /// keeps SRS traffic rack-local on hierarchical fabrics.
  PlacementPolicy placement = PlacementPolicy::kContiguous;
  /// Error-feedback policy. When unset, each method uses its natural
  /// policy from the literature: SparDL -> GRES, TopkA/TopkDSA -> LRES,
  /// gTopk/Ok-Topk -> PRES, Dense -> none.
  std::optional<ResidualMode> residual_mode;
  /// Wire width of SparDL's gradient values (32 = fp32, no quantization;
  /// 4/8/16 enable QSGD-style quantization with residual feedback of the
  /// quantization error — the paper's §VI extension).
  int value_bits = 32;

  /// InvalidArgument naming the first bad field: n in [1, 2^32 - 1],
  /// k in [1, n], P > 0, d > 0 dividing P, a power-of-two d under R-SAG,
  /// and value_bits in {4, 8, 16, 32}.
  Status Validate() const;
};

/// The contract every sparse All-Reduce method in this repo implements
/// (SparDL and all four baselines).
///
/// One instance lives on each worker and holds that worker's persistent
/// state (residual store, threshold estimates, ...). Calls are
/// SPMD: every worker of the cluster must call the same method in the same
/// iteration.
///
/// Post-condition of both entry points: the returned global gradient — the
/// element-wise sum of what all P workers contributed, sparsified by the
/// method's policy — is *identical on every worker*. This is the
/// synchronous-SGD consistency requirement; tests enforce it for every
/// method, worker count and team count.
class SparseAllReduce {
 public:
  virtual ~SparseAllReduce() = default;

  /// Full training-loop entry point. `grad` is this worker's dense local
  /// gradient of length n; the method adds its stored residuals into `grad`
  /// (error feedback), selects, communicates, and collects new residuals.
  virtual SparseVector Run(Comm& comm, std::span<float> grad) = 0;

  /// Communication-only entry point used by the per-update-time benches:
  /// `candidates` plays the role of the dense gradient (all other positions
  /// are zero). No dense residual buffer is touched, so this path works for
  /// paper-scale models (up to 133.5M parameters) without allocating O(n)
  /// memory. Residual collection should be disabled
  /// (ResidualMode::kNone) when using this path.
  virtual SparseVector RunOnSparse(Comm& comm,
                                   const SparseVector& candidates) = 0;

  /// Human-readable method name ("SparDL", "Ok-Topk", ...).
  virtual std::string_view name() const = 0;
};

}  // namespace spardl

#endif  // SPARDL_CORE_SPARSE_ALLREDUCE_H_
