// Regression suite for the layer-bucketed overlap modes on a contended
// fabric — the acceptance bar for the bucketed/priority scheduler:
//
//   * on an oversubscribed fat-tree with nonzero per-iteration compute,
//     bucketed-priority finishes the same training run in STRICTLY less
//     simulated time than the paper's step-synchronous schedule (and, in
//     this regime, plain FIFO bucketing sits strictly between the two);
//   * under the event-ordered engine the whole run is bit-deterministic:
//     re-running a mode reproduces the clock and the parameters exactly;
//   * the two bucketed modes only reorder *when* buckets travel, so they
//     end with bit-identical parameters.
//
// The workload is MakeDeepOverlapCase(): five parameter layers where the
// rear two hold ~70% of the parameters but the front three do most of the
// compute, so FIFO launch order clogs the stream with big early-ready
// rear buckets while the next forward stalls on the small front ones.

#include <gtest/gtest.h>

#include <string>

#include "dl/trainer.h"
#include "topo/topology_spec.h"
#include "train_util.h"

namespace spardl {
namespace {

struct OverlapRun {
  double total_seconds = 0.0;
  double final_metric = 0.0;
};

// 8 workers in racks of 4 behind 8x-oversubscribed uplinks: deterministic
// and contended, the regime the deep-overlap case's compute constant is
// sized for.
OverlapRun RunMode(GradSyncMode mode) {
  const TrainingCaseSpec spec = bench::MakeDeepOverlapCase();
  bench::TrainRunOptions options;
  options.num_workers = 8;
  options.k_ratio = 0.05;
  options.epochs = 2;
  options.iterations_per_epoch = 8;
  options.paper_scale_network = false;
  options.topology =
      TopologySpec::FatTree(8, /*rack_size=*/4, /*oversubscription=*/8.0,
                            CostModel::Ethernet());
  options.sync_mode = mode;

  // RunTrainingCase CHECKs the synchronous-SGD invariant (all replicas
  // bit-identical) internally, for every mode.
  const bench::ConvergenceSeries series = bench::RunTrainingCase(
      spec, "spardl", std::string(GradSyncModeName(mode)), options);
  OverlapRun run;
  run.total_seconds = series.epochs.back().sim_seconds_cumulative;
  run.final_metric = series.epochs.back().test_metric;
  return run;
}

TEST(OverlapTrainerTest, PrioritySchedulingBeatsSynchronousOnContendedFabric) {
  const OverlapRun sync = RunMode(GradSyncMode::kStepSynchronous);
  const OverlapRun bucketed = RunMode(GradSyncMode::kBucketed);
  const OverlapRun priority = RunMode(GradSyncMode::kBucketedPriority);

  // The acceptance bar: priority scheduling strictly beats the paper's
  // step-synchronous trainer end to end.
  EXPECT_LT(priority.total_seconds, sync.total_seconds);
  // And in this regime the three modes separate fully: overlap alone
  // already wins, and priority ordering wins again on top of it.
  EXPECT_LT(bucketed.total_seconds, sync.total_seconds);
  EXPECT_LT(priority.total_seconds, bucketed.total_seconds);

  // Launch order never changes what the buckets carry: both bucketed
  // modes converge to bit-identical numerics.
  EXPECT_EQ(bucketed.final_metric, priority.final_metric);
}

TEST(OverlapTrainerTest, EventEngineRunsAreBitDeterministic) {
  const OverlapRun first = RunMode(GradSyncMode::kBucketedPriority);
  const OverlapRun second = RunMode(GradSyncMode::kBucketedPriority);
  EXPECT_EQ(first.total_seconds, second.total_seconds);
  EXPECT_EQ(first.final_metric, second.final_metric);
}

}  // namespace
}  // namespace spardl
