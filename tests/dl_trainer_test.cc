#include "dl/trainer.h"

#include <gtest/gtest.h>

#include <memory>

#include "baselines/registry.h"
#include "dl/cases.h"
#include "dl/sgd.h"

namespace spardl {
namespace {

AlgorithmFactory SparseFactory(const std::string& name, int p,
                               double k_ratio, int num_teams = 1) {
  return [=](size_t n) {
    AlgorithmConfig config;
    config.n = n;
    config.k = std::max<size_t>(1, static_cast<size_t>(
                                       k_ratio * static_cast<double>(n)));
    config.num_workers = p;
    config.num_teams = num_teams;
    return std::move(*CreateAlgorithm(name, config));
  };
}

TEST(SgdOptimizerTest, LearningRateSchedule) {
  SgdConfig config;
  config.learning_rate = 0.1;
  config.lr_milestones = {{80, 0.1}, {120, 0.1}};
  SgdOptimizer optimizer(4, config);
  EXPECT_DOUBLE_EQ(optimizer.LearningRateAt(0), 0.1);
  EXPECT_DOUBLE_EQ(optimizer.LearningRateAt(79), 0.1);
  EXPECT_NEAR(optimizer.LearningRateAt(80), 0.01, 1e-12);
  EXPECT_NEAR(optimizer.LearningRateAt(120), 0.001, 1e-12);
}

TEST(SgdOptimizerTest, SparseStepAveragesAndAppliesMomentum) {
  SgdConfig config;
  config.learning_rate = 1.0;
  config.momentum = 0.5;
  SgdOptimizer optimizer(3, config);
  std::vector<float> params = {0.0f, 0.0f, 0.0f};
  // Global sum 4.0 at index 1 over 4 workers -> mean 1.0.
  SparseVector global({1}, {4.0f});
  optimizer.Step(global, 4, 0, params);
  EXPECT_FLOAT_EQ(params[1], -1.0f);
  // Momentum carries: v = 0.5*1 + 1 = 1.5 -> param -2.5.
  optimizer.Step(global, 4, 0, params);
  EXPECT_FLOAT_EQ(params[1], -2.5f);
  EXPECT_FLOAT_EQ(params[0], 0.0f);
}

TEST(SgdOptimizerTest, WeightDecayPullsTowardZero) {
  SgdConfig config;
  config.learning_rate = 0.1;
  config.momentum = 0.0;
  config.weight_decay = 1.0;
  SgdOptimizer optimizer(1, config);
  std::vector<float> params = {1.0f};
  std::vector<float> zero_grad = {0.0f};
  optimizer.StepDense(zero_grad, 0, params);
  EXPECT_FLOAT_EQ(params[0], 0.9f);
}

// End-to-end S-SGD: training must actually learn (loss falls, accuracy
// rises) and all replicas must stay identical — with SparDL and with the
// dense baseline.
class TrainerLearningSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(TrainerLearningSweep, LossFallsAndReplicasAgree) {
  const std::string algo = GetParam();
  const int p = 4;
  const TrainingCaseSpec spec = MakeTrainingCase("vgg16");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 5;
  config.iterations_per_epoch = 12;
  config.compute_seconds_per_iteration = 0.0;

  Cluster cluster(p, CostModel::Free());
  const TrainResult result =
      TrainDistributed(cluster, *dataset, spec.model_factory,
                       SparseFactory(algo, p, 0.05), config);
  ASSERT_EQ(result.epochs.size(), 5u);
  EXPECT_TRUE(result.replicas_consistent);
  EXPECT_LT(result.epochs.back().train_loss,
            result.epochs.front().train_loss * 0.9);
  EXPECT_GT(result.epochs.back().test_metric, 0.5);  // >> 10% chance level
}

INSTANTIATE_TEST_SUITE_P(Methods, TrainerLearningSweep,
                         ::testing::Values("spardl", "topka", "oktopk",
                                           "gtopk", "topkdsa", "dense"));

TEST(TrainerTest, SparDLWithTeamsLearns) {
  const int p = 6;
  const TrainingCaseSpec spec = MakeTrainingCase("vgg16");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 4;
  config.iterations_per_epoch = 12;
  config.compute_seconds_per_iteration = 0.0;

  Cluster cluster(p, CostModel::Free());
  const TrainResult result =
      TrainDistributed(cluster, *dataset, spec.model_factory,
                       SparseFactory("spardl", p, 0.05, /*num_teams=*/3),
                       config);
  EXPECT_TRUE(result.replicas_consistent);
  EXPECT_LT(result.epochs.back().train_loss,
            result.epochs.front().train_loss);
}

TEST(TrainerTest, RegressionCaseLossDecreases) {
  const int p = 4;
  const TrainingCaseSpec spec = MakeTrainingCase("vgg11");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 4;
  config.iterations_per_epoch = 12;

  Cluster cluster(p, CostModel::Free());
  const TrainResult result =
      TrainDistributed(cluster, *dataset, spec.model_factory,
                       SparseFactory("spardl", p, 0.05), config);
  EXPECT_TRUE(result.replicas_consistent);
  EXPECT_LT(result.epochs.back().test_metric,
            result.epochs.front().test_metric);
}

TEST(TrainerTest, LstmCaseLearns) {
  const int p = 2;
  const TrainingCaseSpec spec = MakeTrainingCase("lstm-imdb");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 4;
  config.iterations_per_epoch = 10;
  config.batch_size = 24;

  Cluster cluster(p, CostModel::Free());
  const TrainResult result =
      TrainDistributed(cluster, *dataset, spec.model_factory,
                       SparseFactory("spardl", p, 0.05), config);
  EXPECT_TRUE(result.replicas_consistent);
  EXPECT_LT(result.epochs.back().train_loss,
            result.epochs.front().train_loss);
}

TEST(TrainerTest, SimulatedTimeReflectsComputeCharge) {
  const int p = 2;
  const TrainingCaseSpec spec = MakeTrainingCase("vgg11");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 2;
  config.iterations_per_epoch = 5;
  config.compute_seconds_per_iteration = 1.0;

  Cluster cluster(p, CostModel::Free());
  const TrainResult result =
      TrainDistributed(cluster, *dataset, spec.model_factory,
                       SparseFactory("spardl", p, 0.05), config);
  // 2 epochs * 5 iterations * 1s = 10 simulated seconds of compute.
  EXPECT_NEAR(result.epochs.back().sim_seconds_cumulative, 10.0, 1e-6);
}

// Layer-bucketed overlap modes: still synchronous SGD — every replica
// applies the same averaged update — so replicas must stay bit-identical,
// training must still learn, and the two bucketed modes (which only
// reorder *when* buckets travel, never what they carry) must end with
// bit-identical parameters.
TEST(TrainerOverlapTest, BucketedModesLearnAndMatchEachOther) {
  const int p = 4;
  const TrainingCaseSpec spec = MakeTrainingCase("vgg16");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 4;
  config.iterations_per_epoch = 12;
  config.compute_seconds_per_iteration = 1.0e-3;

  TrainResult results[2];
  const GradSyncMode modes[2] = {GradSyncMode::kBucketed,
                                 GradSyncMode::kBucketedPriority};
  for (int i = 0; i < 2; ++i) {
    config.sync_mode = modes[i];
    Cluster cluster(p, CostModel::Ethernet());
    results[i] = TrainDistributed(cluster, *dataset, spec.model_factory,
                                  SparseFactory("spardl", p, 0.05), config);
    EXPECT_TRUE(results[i].replicas_consistent)
        << GradSyncModeName(modes[i]);
    EXPECT_LT(results[i].epochs.back().train_loss,
              results[i].epochs.front().train_loss * 0.9);
    EXPECT_GT(results[i].epochs.back().test_metric, 0.5);
  }
  EXPECT_EQ(results[0].final_param_checksum, results[1].final_param_checksum);
  EXPECT_EQ(results[0].epochs.back().train_loss,
            results[1].epochs.back().train_loss);
}

// With free communication, the bucketed schedule's simulated clock is
// pure compute: the per-layer slices must add back up to the configured
// per-iteration constant (coherent comm/compute accounting).
TEST(TrainerOverlapTest, BucketedAccountingReflectsComputeCharge) {
  const int p = 2;
  const TrainingCaseSpec spec = MakeTrainingCase("vgg11");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 2;
  config.iterations_per_epoch = 5;
  config.compute_seconds_per_iteration = 1.0;
  config.sync_mode = GradSyncMode::kBucketed;

  Cluster cluster(p, CostModel::Free());
  const TrainResult result =
      TrainDistributed(cluster, *dataset, spec.model_factory,
                       SparseFactory("spardl", p, 0.05), config);
  EXPECT_TRUE(result.replicas_consistent);
  EXPECT_NEAR(result.epochs.back().compute_seconds_epoch, 5.0, 1e-6);
  EXPECT_NEAR(result.epochs.back().sim_seconds_cumulative, 10.0, 1e-6);
}

TEST(TrainerOverlapTest, ConfigValidateRejectsBadSettings) {
  TrainerConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.sync_mode = GradSyncMode::kBucketedPriority;
  EXPECT_TRUE(config.Validate().ok());

  TrainerConfig bad = config;
  bad.epochs = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.iterations_per_epoch = -1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.compute_seconds_per_iteration = -0.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.layer_compute_fractions = {0.5, -0.1};
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.layer_compute_fractions = {0.0, 0.0};
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.layer_compute_fractions = {0.6, 0.4};
  EXPECT_TRUE(bad.Validate().ok());
}

TEST(TrainerTest, SparsityHurtsNothingAtKEqualsN) {
  // k = n: sparse methods degenerate to exact dense sync, so the learning
  // curve must match the dense baseline's exactly (same seeds).
  const int p = 4;
  const TrainingCaseSpec spec = MakeTrainingCase("vgg16");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 3;
  config.iterations_per_epoch = 8;

  Cluster cluster_a(p, CostModel::Free());
  const TrainResult spardl_result =
      TrainDistributed(cluster_a, *dataset, spec.model_factory,
                       SparseFactory("spardl", p, 1.0), config);
  Cluster cluster_b(p, CostModel::Free());
  const TrainResult dense_result =
      TrainDistributed(cluster_b, *dataset, spec.model_factory,
                       SparseFactory("dense", p, 1.0), config);
  EXPECT_NEAR(spardl_result.epochs.back().train_loss,
              dense_result.epochs.back().train_loss, 1e-3);
}

}  // namespace
}  // namespace spardl
