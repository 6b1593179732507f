#ifndef SPARDL_DL_LAYERS_H_
#define SPARDL_DL_LAYERS_H_

#include <memory>
#include <span>
#include <string_view>

#include "common/random.h"
#include "dl/matrix.h"

namespace spardl {

/// A differentiable layer with manual backprop.
///
/// Parameters live in the *model's* flat buffers (one contiguous float
/// vector each for params and grads) — the layout every sparse All-Reduce
/// method in this repo synchronises. `Bind` hands each layer its slice.
class Layer {
 public:
  virtual ~Layer() = default;

  /// x: [batch, fan_in] -> [batch, fan_out]. Must cache whatever Backward
  /// needs (layers are stateful between a Forward and its Backward).
  virtual Matrix Forward(const Matrix& x) = 0;

  /// grad_out: d(loss)/d(output) -> d(loss)/d(input); accumulates parameter
  /// gradients into the bound grad slice.
  virtual Matrix Backward(const Matrix& grad_out) = 0;

  /// Number of scalar parameters this layer owns.
  virtual size_t num_params() const { return 0; }

  /// Binds this layer's parameter/grad storage (called once by the model).
  virtual void Bind(std::span<float> params, std::span<float> grads) {
    (void)params;
    (void)grads;
  }

  /// Writes the initial parameter values (same rng state on every worker
  /// replica => identical initialisation).
  virtual void InitParams(Rng* rng) { (void)rng; }

  virtual std::string_view name() const = 0;
};

/// Fully connected: y = x W + b. W is [in, out] row-major, b is [out].
class LinearLayer final : public Layer {
 public:
  LinearLayer(size_t in, size_t out) : in_(in), out_(out) {}

  Matrix Forward(const Matrix& x) override;
  Matrix Backward(const Matrix& grad_out) override;
  size_t num_params() const override { return in_ * out_ + out_; }
  void Bind(std::span<float> params, std::span<float> grads) override;
  void InitParams(Rng* rng) override;
  std::string_view name() const override { return "Linear"; }

 private:
  size_t in_;
  size_t out_;
  std::span<float> params_;
  std::span<float> grads_;
  Matrix cached_input_;
};

/// Element-wise ReLU.
class ReluLayer final : public Layer {
 public:
  Matrix Forward(const Matrix& x) override;
  Matrix Backward(const Matrix& grad_out) override;
  std::string_view name() const override { return "ReLU"; }

 private:
  Matrix cached_input_;
};

/// Token embedding: input [batch, seq_len] of token ids (stored as floats),
/// output [batch, seq_len * dim] of concatenated embeddings.
class EmbeddingLayer final : public Layer {
 public:
  EmbeddingLayer(size_t vocab, size_t dim) : vocab_(vocab), dim_(dim) {}

  Matrix Forward(const Matrix& x) override;
  Matrix Backward(const Matrix& grad_out) override;
  size_t num_params() const override { return vocab_ * dim_; }
  void Bind(std::span<float> params, std::span<float> grads) override;
  void InitParams(Rng* rng) override;
  std::string_view name() const override { return "Embedding"; }

 private:
  size_t vocab_;
  size_t dim_;
  std::span<float> params_;
  std::span<float> grads_;
  Matrix cached_input_;
};

/// Single-layer LSTM over a sequence, returning the final hidden state.
/// Input [batch, seq_len * input_dim]; output [batch, hidden]. Full BPTT.
/// Gate layout (per PyTorch convention): i, f, g, o; weights W_x
/// [input_dim, 4*hidden], W_h [hidden, 4*hidden], bias [4*hidden].
class LstmLayer final : public Layer {
 public:
  LstmLayer(size_t input_dim, size_t hidden, size_t seq_len)
      : input_dim_(input_dim), hidden_(hidden), seq_len_(seq_len) {}

  Matrix Forward(const Matrix& x) override;
  Matrix Backward(const Matrix& grad_out) override;
  size_t num_params() const override {
    return 4 * hidden_ * (input_dim_ + hidden_ + 1);
  }
  void Bind(std::span<float> params, std::span<float> grads) override;
  void InitParams(Rng* rng) override;
  std::string_view name() const override { return "LSTM"; }

 private:
  struct StepCache {
    Matrix x;       // [batch, input_dim]
    Matrix gates;   // [batch, 4*hidden] post-activation (i, f, g, o)
    Matrix c_prev;  // [batch, hidden]
    Matrix c;       // [batch, hidden]
    Matrix h_prev;  // [batch, hidden]
  };

  size_t input_dim_;
  size_t hidden_;
  size_t seq_len_;
  std::span<float> params_;
  std::span<float> grads_;
  std::vector<StepCache> steps_;
};

}  // namespace spardl

#endif  // SPARDL_DL_LAYERS_H_
