#include "dl/layers.h"

#include <algorithm>
#include <cmath>

namespace spardl {

namespace {

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Xavier/Glorot uniform in [-limit, limit].
void XavierInit(std::span<float> w, size_t fan_in, size_t fan_out,
                Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (float& v : w) {
    v = (2.0f * rng->NextFloat() - 1.0f) * limit;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LinearLayer

void LinearLayer::Bind(std::span<float> params, std::span<float> grads) {
  SPARDL_CHECK_EQ(params.size(), num_params());
  params_ = params;
  grads_ = grads;
}

void LinearLayer::InitParams(Rng* rng) {
  XavierInit(params_.subspan(0, in_ * out_), in_, out_, rng);
  for (size_t j = 0; j < out_; ++j) params_[in_ * out_ + j] = 0.0f;
}

Matrix LinearLayer::Forward(const Matrix& x) {
  SPARDL_CHECK_EQ(x.cols(), in_);
  cached_input_ = x;
  Matrix y(x.rows(), out_);
  for (size_t r = 0; r < x.rows(); ++r) {
    const std::span<const float> x_row = x.Row(r);
    const std::span<float> y_row = y.Row(r);
    for (size_t j = 0; j < out_; ++j) y_row[j] = params_[in_ * out_ + j];
    for (size_t i = 0; i < in_; ++i) {
      const float x_ri = x_row[i];
      if (x_ri == 0.0f) continue;
      const std::span<const float> w_row = params_.subspan(i * out_, out_);
      // Four vectors per pass. With one, the loop's speed hung on where
      // the linker put it: a 32-byte shift cost a training step 6-12%.
#pragma GCC unroll 4
      for (size_t j = 0; j < out_; ++j) y_row[j] += x_ri * w_row[j];
    }
  }
  return y;
}

Matrix LinearLayer::Backward(const Matrix& grad_out) {
  SPARDL_CHECK_EQ(grad_out.cols(), out_);
  const Matrix& x = cached_input_;
  // dW += x^T g ; db += sum_rows(g)
  for (size_t r = 0; r < x.rows(); ++r) {
    const std::span<const float> x_row = x.Row(r);
    const std::span<const float> g_row = grad_out.Row(r);
    for (size_t i = 0; i < in_; ++i) {
      const float x_ri = x_row[i];
      if (x_ri == 0.0f) continue;
      const std::span<float> gw_row = grads_.subspan(i * out_, out_);
#pragma GCC unroll 4  // as in Forward
      for (size_t j = 0; j < out_; ++j) gw_row[j] += x_ri * g_row[j];
    }
    const std::span<float> gb = grads_.subspan(in_ * out_, out_);
    for (size_t j = 0; j < out_; ++j) gb[j] += g_row[j];
  }
  // dx = g W^T
  Matrix grad_in(grad_out.rows(), in_);
  for (size_t r = 0; r < grad_out.rows(); ++r) {
    const std::span<const float> g_row = grad_out.Row(r);
    const std::span<float> gi_row = grad_in.Row(r);
    for (size_t i = 0; i < in_; ++i) {
      const std::span<const float> w_row = params_.subspan(i * out_, out_);
      float acc = 0.0f;
      for (size_t j = 0; j < out_; ++j) acc += g_row[j] * w_row[j];
      gi_row[i] = acc;
    }
  }
  return grad_in;
}

// ---------------------------------------------------------------------------
// ReluLayer

Matrix ReluLayer::Forward(const Matrix& x) {
  cached_input_ = x;
  Matrix y = x;
  for (float& v : y.data()) {
    if (v < 0.0f) v = 0.0f;
  }
  return y;
}

Matrix ReluLayer::Backward(const Matrix& grad_out) {
  Matrix grad_in = grad_out;
  for (size_t i = 0; i < grad_in.data().size(); ++i) {
    if (cached_input_.data()[i] <= 0.0f) grad_in.data()[i] = 0.0f;
  }
  return grad_in;
}

// ---------------------------------------------------------------------------
// EmbeddingLayer

void EmbeddingLayer::Bind(std::span<float> params, std::span<float> grads) {
  SPARDL_CHECK_EQ(params.size(), num_params());
  params_ = params;
  grads_ = grads;
}

void EmbeddingLayer::InitParams(Rng* rng) {
  for (float& v : params_) {
    v = static_cast<float>(rng->NextGaussian()) * 0.1f;
  }
}

Matrix EmbeddingLayer::Forward(const Matrix& x) {
  cached_input_ = x;
  const size_t seq_len = x.cols();
  Matrix y(x.rows(), seq_len * dim_);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t t = 0; t < seq_len; ++t) {
      const auto token = static_cast<size_t>(x.At(r, t));
      SPARDL_DCHECK_LT(token, vocab_);
      const std::span<const float> e = params_.subspan(token * dim_, dim_);
      std::span<float> out = y.Row(r).subspan(t * dim_, dim_);
      std::copy(e.begin(), e.end(), out.begin());
    }
  }
  return y;
}

Matrix EmbeddingLayer::Backward(const Matrix& grad_out) {
  const Matrix& x = cached_input_;
  const size_t seq_len = x.cols();
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t t = 0; t < seq_len; ++t) {
      const auto token = static_cast<size_t>(x.At(r, t));
      std::span<float> ge = grads_.subspan(token * dim_, dim_);
      const std::span<const float> g = grad_out.Row(r).subspan(t * dim_, dim_);
      for (size_t j = 0; j < dim_; ++j) ge[j] += g[j];
    }
  }
  // Token ids carry no gradient.
  return Matrix(x.rows(), x.cols());
}

// ---------------------------------------------------------------------------
// LstmLayer

void LstmLayer::Bind(std::span<float> params, std::span<float> grads) {
  SPARDL_CHECK_EQ(params.size(), num_params());
  params_ = params;
  grads_ = grads;
}

void LstmLayer::InitParams(Rng* rng) {
  const size_t g4 = 4 * hidden_;
  XavierInit(params_.subspan(0, input_dim_ * g4), input_dim_, g4, rng);
  XavierInit(params_.subspan(input_dim_ * g4, hidden_ * g4), hidden_, g4,
             rng);
  std::span<float> bias =
      params_.subspan((input_dim_ + hidden_) * g4, g4);
  // Forget-gate bias of 1: the standard trick for stable training.
  for (size_t j = 0; j < g4; ++j) {
    bias[j] = (j >= hidden_ && j < 2 * hidden_) ? 1.0f : 0.0f;
  }
}

Matrix LstmLayer::Forward(const Matrix& x) {
  SPARDL_CHECK_EQ(x.cols(), seq_len_ * input_dim_);
  const size_t batch = x.rows();
  const size_t g4 = 4 * hidden_;
  const std::span<const float> w_x = params_.subspan(0, input_dim_ * g4);
  const std::span<const float> w_h =
      params_.subspan(input_dim_ * g4, hidden_ * g4);
  const std::span<const float> bias =
      params_.subspan((input_dim_ + hidden_) * g4, g4);

  steps_.assign(seq_len_, StepCache{});
  Matrix h(batch, hidden_);
  Matrix c(batch, hidden_);
  for (size_t t = 0; t < seq_len_; ++t) {
    StepCache& step = steps_[t];
    step.h_prev = h;
    step.c_prev = c;
    step.x = Matrix(batch, input_dim_);
    for (size_t r = 0; r < batch; ++r) {
      const std::span<const float> xt =
          x.Row(r).subspan(t * input_dim_, input_dim_);
      std::copy(xt.begin(), xt.end(), step.x.Row(r).begin());
    }
    // Pre-activations: z = x W_x + h_prev W_h + b.
    Matrix z(batch, g4);
    for (size_t r = 0; r < batch; ++r) {
      std::span<float> z_row = z.Row(r);
      for (size_t j = 0; j < g4; ++j) z_row[j] = bias[j];
      const std::span<const float> x_row = step.x.Row(r);
      for (size_t i = 0; i < input_dim_; ++i) {
        const float v = x_row[i];
        if (v == 0.0f) continue;
        const std::span<const float> w_row = w_x.subspan(i * g4, g4);
        for (size_t j = 0; j < g4; ++j) z_row[j] += v * w_row[j];
      }
      const std::span<const float> h_row = step.h_prev.Row(r);
      for (size_t i = 0; i < hidden_; ++i) {
        const float v = h_row[i];
        if (v == 0.0f) continue;
        const std::span<const float> w_row = w_h.subspan(i * g4, g4);
        for (size_t j = 0; j < g4; ++j) z_row[j] += v * w_row[j];
      }
    }
    // Activations and state update.
    step.gates = Matrix(batch, g4);
    step.c = Matrix(batch, hidden_);
    for (size_t r = 0; r < batch; ++r) {
      const std::span<const float> z_row = z.Row(r);
      std::span<float> gate_row = step.gates.Row(r);
      for (size_t j = 0; j < hidden_; ++j) {
        const float i_g = Sigmoid(z_row[j]);
        const float f_g = Sigmoid(z_row[hidden_ + j]);
        const float g_g = std::tanh(z_row[2 * hidden_ + j]);
        const float o_g = Sigmoid(z_row[3 * hidden_ + j]);
        gate_row[j] = i_g;
        gate_row[hidden_ + j] = f_g;
        gate_row[2 * hidden_ + j] = g_g;
        gate_row[3 * hidden_ + j] = o_g;
        const float c_new = f_g * step.c_prev.At(r, j) + i_g * g_g;
        step.c.At(r, j) = c_new;
        h.At(r, j) = o_g * std::tanh(c_new);
      }
    }
    c = step.c;
  }
  return h;
}

Matrix LstmLayer::Backward(const Matrix& grad_out) {
  const size_t batch = grad_out.rows();
  const size_t g4 = 4 * hidden_;
  const std::span<const float> w_x = params_.subspan(0, input_dim_ * g4);
  const std::span<const float> w_h =
      params_.subspan(input_dim_ * g4, hidden_ * g4);
  std::span<float> gw_x = grads_.subspan(0, input_dim_ * g4);
  std::span<float> gw_h = grads_.subspan(input_dim_ * g4, hidden_ * g4);
  std::span<float> gbias = grads_.subspan((input_dim_ + hidden_) * g4, g4);

  Matrix grad_in(batch, seq_len_ * input_dim_);
  Matrix dh = grad_out;            // d(loss)/d(h_t)
  Matrix dc(batch, hidden_);       // d(loss)/d(c_t)
  for (size_t t = seq_len_; t-- > 0;) {
    const StepCache& step = steps_[t];
    Matrix dz(batch, g4);
    for (size_t r = 0; r < batch; ++r) {
      const std::span<const float> gate_row = step.gates.Row(r);
      std::span<float> dz_row = dz.Row(r);
      for (size_t j = 0; j < hidden_; ++j) {
        const float i_g = gate_row[j];
        const float f_g = gate_row[hidden_ + j];
        const float g_g = gate_row[2 * hidden_ + j];
        const float o_g = gate_row[3 * hidden_ + j];
        const float c_val = step.c.At(r, j);
        const float tanh_c = std::tanh(c_val);
        const float dh_rj = dh.At(r, j);
        float dc_rj = dc.At(r, j) + dh_rj * o_g * (1.0f - tanh_c * tanh_c);
        // Gate pre-activation gradients.
        dz_row[j] = dc_rj * g_g * i_g * (1.0f - i_g);
        dz_row[hidden_ + j] =
            dc_rj * step.c_prev.At(r, j) * f_g * (1.0f - f_g);
        dz_row[2 * hidden_ + j] = dc_rj * i_g * (1.0f - g_g * g_g);
        dz_row[3 * hidden_ + j] = dh_rj * tanh_c * o_g * (1.0f - o_g);
        // Carry cell gradient to t-1.
        dc.At(r, j) = dc_rj * f_g;
      }
    }
    // Parameter grads: gW_x += x^T dz ; gW_h += h_prev^T dz ; gb += sum(dz).
    for (size_t r = 0; r < batch; ++r) {
      const std::span<const float> dz_row = dz.Row(r);
      const std::span<const float> x_row = step.x.Row(r);
      for (size_t i = 0; i < input_dim_; ++i) {
        const float v = x_row[i];
        if (v == 0.0f) continue;
        std::span<float> g_row = gw_x.subspan(i * g4, g4);
        for (size_t j = 0; j < g4; ++j) g_row[j] += v * dz_row[j];
      }
      const std::span<const float> h_row = step.h_prev.Row(r);
      for (size_t i = 0; i < hidden_; ++i) {
        const float v = h_row[i];
        if (v == 0.0f) continue;
        std::span<float> g_row = gw_h.subspan(i * g4, g4);
        for (size_t j = 0; j < g4; ++j) g_row[j] += v * dz_row[j];
      }
      for (size_t j = 0; j < g4; ++j) gbias[j] += dz_row[j];
    }
    // Input grads and recurrent h gradient.
    Matrix dh_prev(batch, hidden_);
    for (size_t r = 0; r < batch; ++r) {
      const std::span<const float> dz_row = dz.Row(r);
      std::span<float> gi =
          grad_in.Row(r).subspan(t * input_dim_, input_dim_);
      for (size_t i = 0; i < input_dim_; ++i) {
        const std::span<const float> w_row = w_x.subspan(i * g4, g4);
        float acc = 0.0f;
        for (size_t j = 0; j < g4; ++j) acc += dz_row[j] * w_row[j];
        gi[i] = acc;
      }
      std::span<float> dh_row = dh_prev.Row(r);
      for (size_t i = 0; i < hidden_; ++i) {
        const std::span<const float> w_row = w_h.subspan(i * g4, g4);
        float acc = 0.0f;
        for (size_t j = 0; j < g4; ++j) acc += dz_row[j] * w_row[j];
        dh_row[i] = acc;
      }
    }
    dh = dh_prev;
  }
  return grad_in;
}

}  // namespace spardl
