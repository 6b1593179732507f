#include "dl/data.h"

#include <gtest/gtest.h>

#include <set>

#include "dl/cases.h"
#include "dl/grad_profile.h"

namespace spardl {
namespace {

TEST(SyntheticClassificationTest, DeterministicBatches) {
  auto dataset = MakeSyntheticClassification(16, 4, 0.5f, 9);
  const Batch a = dataset->TrainBatch(2, 7, 8);
  const Batch b = dataset->TrainBatch(2, 7, 8);
  EXPECT_EQ(a.inputs.data(), b.inputs.data());
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticClassificationTest, DifferentWorkersDifferentShards) {
  auto dataset = MakeSyntheticClassification(16, 4, 0.5f, 9);
  const Batch a = dataset->TrainBatch(0, 7, 8);
  const Batch b = dataset->TrainBatch(1, 7, 8);
  EXPECT_NE(a.inputs.data(), b.inputs.data());
}

TEST(SyntheticClassificationTest, LabelsInRange) {
  auto dataset = MakeSyntheticClassification(8, 5, 0.5f, 9);
  const Batch batch = dataset->TrainBatch(0, 0, 64);
  for (int label : batch.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 5);
  }
}

TEST(SyntheticRegressionTest, TargetsFilledLabelsEmpty) {
  auto dataset = MakeSyntheticRegression(8, 0.1f, 3);
  const Batch batch = dataset->TrainBatch(0, 0, 16);
  EXPECT_EQ(batch.targets.rows(), 16u);
  EXPECT_EQ(batch.targets.cols(), 1u);
  EXPECT_TRUE(batch.labels.empty());
  EXPECT_FALSE(dataset->is_classification());
  EXPECT_EQ(dataset->metric(), TaskMetric::kLoss);
}

TEST(SyntheticSequenceClassificationTest, TokensWithinVocab) {
  auto dataset = MakeSyntheticSequenceClassification(50, 10, 2, 4);
  const Batch batch = dataset->TrainBatch(1, 3, 32);
  EXPECT_EQ(batch.inputs.cols(), 10u);
  for (float v : batch.inputs.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 50.0f);
    EXPECT_EQ(v, static_cast<float>(static_cast<int>(v)));  // integral
  }
}

TEST(SyntheticLanguageModelTest, LabelIsNextToken) {
  auto dataset = MakeSyntheticLanguageModel(30, 6, 5);
  const Batch batch = dataset->TrainBatch(0, 0, 64);
  EXPECT_EQ(batch.labels.size(), 64u);
  for (int label : batch.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 30);
  }
  // The chain is mostly deterministic: the plurality of rows ending in the
  // same token must share their label.
  EXPECT_TRUE(dataset->is_classification());
}

TEST(TrainingCasesTest, AllSevenCasesConstruct) {
  for (const std::string key : {"vgg16", "vgg19", "resnet50", "vgg11",
                                "lstm-imdb", "lstm-ptb", "bert"}) {
    const TrainingCaseSpec spec = MakeTrainingCase(key);
    EXPECT_EQ(spec.key, key);
    auto dataset = spec.dataset_factory();
    ASSERT_NE(dataset, nullptr) << key;
    auto model = spec.model_factory(1);
    ASSERT_NE(model, nullptr) << key;
    EXPECT_GT(model->num_params(), 1000u) << key;
    // Model accepts a batch from its dataset end to end.
    const Batch batch = dataset->TrainBatch(0, 0, 4);
    const Matrix out = model->Forward(batch.inputs);
    EXPECT_EQ(out.rows(), 4u);
  }
}

TEST(TrainingCasesTest, UnknownCaseDies) {
  EXPECT_DEATH(MakeTrainingCase("alexnet"), "unknown training case");
}

TEST(ModelProfilesTest, TableTwoParameterCounts) {
  ASSERT_EQ(PaperModelProfiles().size(), 7u);
  EXPECT_EQ(ProfileByModel("VGG-16").num_params, 14'700'000u);
  EXPECT_EQ(ProfileByModel("VGG-19").num_params, 20'100'000u);
  EXPECT_EQ(ProfileByModel("ResNet-50").num_params, 23'500'000u);
  EXPECT_EQ(ProfileByModel("VGG-11").num_params, 9'200'000u);
  EXPECT_EQ(ProfileByModel("LSTM-IMDB").num_params, 35'200'000u);
  EXPECT_EQ(ProfileByModel("LSTM-PTB").num_params, 66'000'000u);
  EXPECT_EQ(ProfileByModel("BERT").num_params, 133'500'000u);
}

TEST(ProfileGradientGeneratorTest, DeterministicAndSorted) {
  ProfileGradientGenerator gen(1'000'000, 77);
  const SparseVector a = gen.Generate(3, 10, 5000);
  const SparseVector b = gen.Generate(3, 10, 5000);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 4000u);  // mild dedup shrinkage only
  EXPECT_TRUE(a.IndicesWithin(0, 1'000'000));
}

TEST(ProfileGradientGeneratorTest, WorkersOverlapPartially) {
  ProfileGradientGenerator gen(1'000'000, 77);
  const SparseVector a = gen.Generate(0, 5, 4000);
  const SparseVector b = gen.Generate(1, 5, 4000);
  std::set<GradIndex> sa(a.indices().begin(), a.indices().end());
  size_t shared = 0;
  for (GradIndex idx : b.indices()) shared += sa.count(idx);
  // Same hot windows -> some overlap; different streams -> far from total.
  EXPECT_GT(shared, b.size() / 50);
  EXPECT_LT(shared, b.size() / 2);
}

TEST(ProfileGradientGeneratorTest, SupportDriftsAcrossWindows) {
  ProfileGradientGenerator gen(1'000'000, 77, 32, /*drift_period=*/10);
  const SparseVector early = gen.Generate(0, 0, 3000);
  const SparseVector late = gen.Generate(0, 500, 3000);
  std::set<GradIndex> se(early.indices().begin(), early.indices().end());
  size_t shared = 0;
  for (GradIndex idx : late.indices()) shared += se.count(idx);
  EXPECT_LT(shared, late.size() / 4);  // windows moved
}

TEST(ProfileGradientGeneratorTest, SupportStableWithinWindow) {
  ProfileGradientGenerator gen(1'000'000, 77, 32, /*drift_period=*/100);
  const SparseVector a = gen.Generate(0, 10, 3000);
  const SparseVector b = gen.Generate(0, 11, 3000);
  std::set<GradIndex> sa(a.indices().begin(), a.indices().end());
  size_t shared = 0;
  for (GradIndex idx : b.indices()) shared += sa.count(idx);
  // Same windows, fresh per-iteration samples: moderate but real overlap.
  EXPECT_GT(shared, b.size() / 50);
}

}  // namespace
}  // namespace spardl
