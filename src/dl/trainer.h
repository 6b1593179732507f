#ifndef SPARDL_DL_TRAINER_H_
#define SPARDL_DL_TRAINER_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/sparse_allreduce.h"
#include "dl/data.h"
#include "dl/model.h"
#include "dl/sgd.h"
#include "simnet/cluster.h"

namespace spardl {

/// How the trainer overlaps gradient synchronisation with backprop on the
/// simulated clock. Every mode computes bit-identical parameters — the
/// modes only reschedule *when* each layer's gradients travel, never what
/// is averaged (the synchronous-SGD invariant holds throughout).
enum class GradSyncMode {
  /// Today's behaviour, bit-for-bit: charge the whole iteration's compute,
  /// then run one whole-model sparse allreduce.
  kStepSynchronous,
  /// One gradient bucket per parameter layer, posted on the communication
  /// stream at the simulated instant its layer's backward slice finishes
  /// (reverse layer order — the bucketing order backprop produces).
  kBucketed,
  /// Like `kBucketed`, but bucket launches are reordered so front layers —
  /// the ones the next iteration's forward needs first — complete
  /// earliest (Parallax/EmbRace-style priority scheduling).
  kBucketedPriority,
};

std::string_view GradSyncModeName(GradSyncMode mode);

/// Distributed S-SGD training configuration.
struct TrainerConfig {
  size_t batch_size = 32;
  int iterations_per_epoch = 20;
  int epochs = 8;
  SgdConfig sgd;
  /// Simulated forward+backward seconds charged per iteration (the paper's
  /// "computation cost" bar; communication time comes from the simnet).
  double compute_seconds_per_iteration = 0.0;
  /// Seed for model initialisation — identical on all replicas.
  uint64_t model_seed = 7;
  /// Gradient synchronisation schedule (see `GradSyncMode`).
  GradSyncMode sync_mode = GradSyncMode::kStepSynchronous;
  /// Optional per-parameter-layer share of forward/backward time, in
  /// forward layer order (`Model::param_spans()` order). Empty = split
  /// proportionally to each layer's parameter count. When set, the size
  /// must match the model's parameter-layer count; entries must be
  /// non-negative with a positive sum.
  std::vector<double> layer_compute_fractions;

  /// Validates the knobs above (model-independent checks; the
  /// `layer_compute_fractions` size is checked against the model inside
  /// `TrainDistributed`).
  Status Validate() const;
};

/// One epoch's scoreboard.
struct EpochRecord {
  int epoch = 0;
  double train_loss = 0.0;
  /// Test accuracy (classification) or test loss (regression/LM).
  double test_metric = 0.0;
  /// Cluster-wide simulated seconds elapsed since training started.
  double sim_seconds_cumulative = 0.0;
  /// Simulated seconds spent in communication this epoch (max over
  /// workers).
  double comm_seconds_epoch = 0.0;
  double compute_seconds_epoch = 0.0;
};

struct TrainResult {
  std::vector<EpochRecord> epochs;
  /// All replicas ended bit-identical (synchronous-SGD invariant).
  bool replicas_consistent = false;
  double final_param_checksum = 0.0;
};

/// Builds one model replica; called once per worker with
/// `TrainerConfig::model_seed`, so replicas start identical.
using ModelFactory = std::function<std::unique_ptr<Model>(uint64_t seed)>;

/// Builds one worker's sparse All-Reduce instance for a gradient of length
/// `n`.
using AlgorithmFactory =
    std::function<std::unique_ptr<SparseAllReduce>(size_t n)>;

/// Runs data-parallel synchronous SGD on `cluster`: every iteration each
/// worker computes gradients on its shard, synchronises via the method
/// from `algorithm_factory`, and applies the averaged update. Returns
/// per-epoch metrics measured on the simulated clock.
TrainResult TrainDistributed(Cluster& cluster, const Dataset& dataset,
                             const ModelFactory& model_factory,
                             const AlgorithmFactory& algorithm_factory,
                             const TrainerConfig& config);

}  // namespace spardl

#endif  // SPARDL_DL_TRAINER_H_
