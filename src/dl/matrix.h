#ifndef SPARDL_DL_MATRIX_H_
#define SPARDL_DL_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/logging.h"

namespace spardl {

/// Row-major dense float matrix — the activation/weight currency of the
/// training substrate. Deliberately minimal: the substrate needs exactly
/// the operations backprop through MLP/LSTM models requires, nothing more.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) {
    SPARDL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    SPARDL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<float> Row(size_t r) {
    return std::span<float>(data_).subspan(r * cols_, cols_);
  }
  std::span<const float> Row(size_t r) const {
    return std::span<const float>(data_).subspan(r * cols_, cols_);
  }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace spardl

#endif  // SPARDL_DL_MATRIX_H_
