#include "dl/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "dl/loss.h"
#include "dl/model.h"

namespace spardl {
namespace {

// Finite-difference gradient check of an entire model against a scalar
// loss: the analytic parameter gradient from Backward must match
// (loss(p+eps) - loss(p-eps)) / 2eps for every parameter. This validates
// each layer's backprop exactly once wired end-to-end.
double EvalLoss(Model* model, const Matrix& input,
                const std::vector<int>& labels) {
  const Matrix out = model->Forward(input);
  return SoftmaxCrossEntropy(out, labels).loss;
}

void CheckModelGradients(Model* model, const Matrix& input,
                         const std::vector<int>& labels, double tolerance) {
  model->ZeroGrads();
  const Matrix out = model->Forward(input);
  const LossResult loss = SoftmaxCrossEntropy(out, labels);
  model->Backward(loss.grad);

  std::span<float> params = model->params();
  std::span<float> grads = model->grads();
  const float eps = 1e-2f;
  // Check a deterministic subset of parameters (every stride-th).
  const size_t stride = std::max<size_t>(1, params.size() / 60);
  for (size_t i = 0; i < params.size(); i += stride) {
    const float original = params[i];
    params[i] = original + eps;
    const double loss_plus = EvalLoss(model, input, labels);
    params[i] = original - eps;
    const double loss_minus = EvalLoss(model, input, labels);
    params[i] = original;
    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(grads[i], numeric,
                tolerance * (1.0 + std::abs(numeric)))
        << "param " << i;
  }
}

Matrix RandomInput(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (float& v : m.data()) v = static_cast<float>(rng.NextGaussian());
  return m;
}

TEST(GradCheckTest, LinearRelu) {
  Model model;
  model.Add(std::make_unique<LinearLayer>(6, 8));
  model.Add(std::make_unique<ReluLayer>());
  model.Add(std::make_unique<LinearLayer>(8, 4));
  model.Finalize(11);
  const Matrix input = RandomInput(5, 6, 21);
  CheckModelGradients(&model, input, {0, 1, 2, 3, 1}, 2e-2);
}

TEST(GradCheckTest, EmbeddingLstm) {
  Model model;
  model.Add(std::make_unique<EmbeddingLayer>(12, 5));
  model.Add(std::make_unique<LstmLayer>(5, 6, /*seq_len=*/4));
  model.Add(std::make_unique<LinearLayer>(6, 3));
  model.Finalize(13);
  // Token-id input.
  Matrix input(3, 4);
  Rng rng(23);
  for (float& v : input.data()) {
    v = static_cast<float>(rng.NextBounded(12));
  }
  CheckModelGradients(&model, input, {0, 1, 2}, 4e-2);
}

TEST(LinearLayerTest, ForwardShapeAndBias) {
  Model model;
  model.Add(std::make_unique<LinearLayer>(3, 2));
  model.Finalize(1);
  // Set known params: W = [[1,0],[0,1],[1,1]], b = [0.5, -0.5].
  std::span<float> p = model.params();
  const float w[] = {1, 0, 0, 1, 1, 1, 0.5f, -0.5f};
  std::copy(std::begin(w), std::end(w), p.begin());
  Matrix x(1, 3);
  x.At(0, 0) = 2.0f;
  x.At(0, 1) = 3.0f;
  x.At(0, 2) = 4.0f;
  const Matrix y = model.Forward(x);
  ASSERT_EQ(y.rows(), 1u);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_FLOAT_EQ(y.At(0, 0), 2.0f + 4.0f + 0.5f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 3.0f + 4.0f - 0.5f);
}

TEST(ReluLayerTest, ClampsNegativesForwardAndBackward) {
  ReluLayer relu;
  Matrix x(1, 3);
  x.At(0, 0) = -1.0f;
  x.At(0, 1) = 0.0f;
  x.At(0, 2) = 2.0f;
  const Matrix y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 2), 2.0f);
  Matrix g(1, 3);
  g.At(0, 0) = 1.0f;
  g.At(0, 1) = 1.0f;
  g.At(0, 2) = 1.0f;
  const Matrix gi = relu.Backward(g);
  EXPECT_FLOAT_EQ(gi.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gi.At(0, 1), 0.0f);  // boundary counts as inactive
  EXPECT_FLOAT_EQ(gi.At(0, 2), 1.0f);
}

TEST(EmbeddingLayerTest, LooksUpRows) {
  Model model;
  model.Add(std::make_unique<EmbeddingLayer>(4, 2));
  model.Finalize(3);
  std::span<float> p = model.params();
  for (size_t i = 0; i < p.size(); ++i) p[i] = static_cast<float>(i);
  Matrix tokens(1, 3);
  tokens.At(0, 0) = 2.0f;
  tokens.At(0, 1) = 0.0f;
  tokens.At(0, 2) = 3.0f;
  const Matrix y = model.Forward(tokens);
  ASSERT_EQ(y.cols(), 6u);
  EXPECT_FLOAT_EQ(y.At(0, 0), 4.0f);  // row 2 = {4,5}
  EXPECT_FLOAT_EQ(y.At(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(y.At(0, 2), 0.0f);  // row 0 = {0,1}
  EXPECT_FLOAT_EQ(y.At(0, 4), 6.0f);  // row 3 = {6,7}
}

TEST(LstmLayerTest, ParamCountMatchesFormula) {
  LstmLayer lstm(10, 20, 5);
  EXPECT_EQ(lstm.num_params(), 4u * 20u * (10u + 20u + 1u));
}

TEST(LstmLayerTest, OutputBoundedByTanh) {
  Model model;
  model.Add(std::make_unique<LstmLayer>(3, 4, 6));
  model.Finalize(9);
  const Matrix input = RandomInput(2, 18, 33);
  const Matrix h = model.Forward(input);
  ASSERT_EQ(h.rows(), 2u);
  ASSERT_EQ(h.cols(), 4u);
  for (float v : h.data()) {
    EXPECT_LT(std::fabs(v), 1.0f);  // |h| = |o * tanh(c)| < 1
  }
}

TEST(ModelTest, FinalizeBindsAllParams) {
  Model model;
  model.Add(std::make_unique<LinearLayer>(4, 8));
  model.Add(std::make_unique<ReluLayer>());
  model.Add(std::make_unique<LinearLayer>(8, 2));
  model.Finalize(5);
  EXPECT_EQ(model.num_params(), 4u * 8 + 8 + 8 * 2 + 2);
}

TEST(ModelTest, SameSeedSameInit) {
  auto build = [](uint64_t seed) {
    auto model = std::make_unique<Model>();
    model->Add(std::make_unique<LinearLayer>(6, 6));
    model->Finalize(seed);
    return model;
  };
  auto a = build(42);
  auto b = build(42);
  auto c = build(43);
  EXPECT_EQ(a->ParamChecksum(), b->ParamChecksum());
  EXPECT_NE(a->ParamChecksum(), c->ParamChecksum());
}

TEST(ModelTest, ZeroGradsClears) {
  Model model;
  model.Add(std::make_unique<LinearLayer>(3, 3));
  model.Finalize(4);
  const Matrix input = RandomInput(2, 3, 44);
  const Matrix out = model.Forward(input);
  model.Backward(out);  // arbitrary upstream grad
  double sum = 0.0;
  for (float g : model.grads()) sum += std::fabs(g);
  EXPECT_GT(sum, 0.0);
  model.ZeroGrads();
  for (float g : model.grads()) EXPECT_FLOAT_EQ(g, 0.0f);
}

}  // namespace
}  // namespace spardl
