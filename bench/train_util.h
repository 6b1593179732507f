#ifndef SPARDL_BENCH_TRAIN_UTIL_H_
#define SPARDL_BENCH_TRAIN_UTIL_H_

#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/residual.h"
#include "core/sparse_allreduce.h"
#include "dl/cases.h"
#include "dl/trainer.h"
#include "topo/placement.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace bench {

/// One training run's identity + curve, for the convergence figures.
struct ConvergenceSeries {
  std::string label;
  TaskMetric metric = TaskMetric::kAccuracy;
  std::vector<EpochRecord> epochs;
  bool replicas_consistent = false;
};

struct TrainRunOptions {
  int num_workers = 14;
  double k_ratio = 0.01;
  int num_teams = 1;
  /// SparDL's team placement policy (num_teams > 1; ignored by the
  /// baselines), laid out on the run's resolved fabric.
  PlacementPolicy placement = PlacementPolicy::kContiguous;
  std::optional<ResidualMode> residual_mode;  // method default when unset
  std::optional<SagMode> sag_mode;            // kAuto when unset
  int value_bits = 32;                        // SparDL wire quantization
  int epochs = 6;
  int iterations_per_epoch = 12;
  CostModel cost_model = CostModel::Ethernet();
  /// When set, training runs on this fabric instead of the flat
  /// `cost_model` crossbar — the same knob `PerUpdateOptions.topology`
  /// gives the per-update benches. A `num_workers` of 0 in the spec
  /// inherits `num_workers` above; otherwise the two must agree. The
  /// spec's embedded cost is the per-hop alpha-beta budget (and is what
  /// `paper_scale_network` rescales).
  std::optional<TopologySpec> topology;
  /// LR-drop milestone as a fraction of total epochs (Fig. 17 uses the
  /// paper's epoch-80 drop); < 0 disables.
  double lr_drop_fraction = -1.0;
  /// Scale beta by paper-model-n / this-model-n and charge the paper
  /// model's compute constant, so the laptop-scale model experiences the
  /// paper testbed's bandwidth/latency/compute balance (the alpha-beta
  /// model is linear in message size, so method ratios are preserved).
  bool paper_scale_network = true;
  /// Gradient-sync schedule: step-synchronous (default), or one of the
  /// layer-bucketed overlap modes (`ext_overlap` sweeps all three).
  GradSyncMode sync_mode = GradSyncMode::kStepSynchronous;
};

/// A deep VGG-shaped case for the overlap harness (`ext_overlap`
/// and the overlap trainer tests): five parameter layers where the rear
/// two hold ~70% of the parameters but the front three do most of the
/// compute (`layer_compute_fractions` is front-heavy, like conv-vs-fc
/// splits in real VGG). That shape is what priority scheduling exists
/// for — the big, early-ready rear buckets clog the communication stream
/// ahead of the small front buckets the next forward needs first. The
/// paper's seven cases are all three-parameter-layer models, where a
/// bucket launch order can never deviate from FIFO.
TrainingCaseSpec MakeDeepOverlapCase();

/// Trains `spec` with the named sparse All-Reduce method and returns the
/// per-epoch curve on the simulated clock.
ConvergenceSeries RunTrainingCase(const TrainingCaseSpec& spec,
                                  const std::string& algo_name,
                                  const std::string& label,
                                  const TrainRunOptions& options);

/// Queues `RunTrainingCase(spec, algo_name, label, options)` on `sweep`,
/// costed by the worker-iterations it trains. `spec` must outlive the
/// sweep's `Run`.
void AddTrainingCase(Sweep<ConvergenceSeries>& sweep,
                     const TrainingCaseSpec& spec,
                     const std::string& algo_name, const std::string& label,
                     const TrainRunOptions& options);

/// Prints curves as "sim time | metric" rows per series.
void PrintConvergence(const std::string& title,
                      const std::vector<ConvergenceSeries>& series);

}  // namespace bench
}  // namespace spardl

#endif  // SPARDL_BENCH_TRAIN_UTIL_H_
