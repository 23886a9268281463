#ifndef SERD_NN_TENSOR_H_
#define SERD_NN_TENSOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace serd::nn {

/// A dense 2-D float tensor with an optional gradient buffer. Vectors are
/// represented as 1xN or Nx1 matrices; scalars as 1x1. Tensors are shared
/// between the autograd tape and modules via shared_ptr (TensorPtr).
///
/// This library substitutes for libtorch in the reproduction (see
/// DESIGN.md): a deliberately small, CPU-only, row-major tensor with
/// reverse-mode autodiff layered on top (tape.h).
class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}
  Tensor(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), value_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return value_.size(); }

  float& at(size_t r, size_t c) {
    SERD_CHECK(r < rows_ && c < cols_);
    return value_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    SERD_CHECK(r < rows_ && c < cols_);
    return value_[r * cols_ + c];
  }

  std::vector<float>& value() { return value_; }
  const std::vector<float>& value() const { return value_; }

  /// Gradient buffer (same shape); lazily allocated by EnsureGrad.
  std::vector<float>& grad() { return grad_; }
  const std::vector<float>& grad() const { return grad_; }

  void EnsureGrad() {
    if (grad_.size() != value_.size()) grad_.assign(value_.size(), 0.0f);
  }

  /// Reshapes to rows x cols for reuse (TensorArena). Buffer capacity is
  /// kept, so a recycled tensor reaches its steady-state shape without
  /// further heap traffic. The value buffer is NOT cleared: it holds
  /// whatever an earlier shape left there, and the caller must overwrite
  /// every element. The grad buffer is emptied (EnsureGrad re-zeroes it).
  void Recycle(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    value_.resize(rows * cols);
    grad_.clear();
  }

  void ZeroGrad() {
    if (!grad_.empty()) std::fill(grad_.begin(), grad_.end(), 0.0f);
  }

  /// Fills with U(-limit, limit) (Xavier-style init when limit =
  /// sqrt(6/(fan_in+fan_out))).
  void FillUniform(Rng* rng, float limit);

  /// Fills with N(0, stddev^2).
  void FillGaussian(Rng* rng, float stddev);

 private:
  size_t rows_, cols_;
  std::vector<float> value_;
  std::vector<float> grad_;
};

using TensorPtr = std::shared_ptr<Tensor>;

inline TensorPtr MakeTensor(size_t rows, size_t cols, float fill = 0.0f) {
  return std::make_shared<Tensor>(rows, cols, fill);
}

}  // namespace serd::nn

#endif  // SERD_NN_TENSOR_H_
