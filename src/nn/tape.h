#ifndef SERD_NN_TAPE_H_
#define SERD_NN_TAPE_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/tensor.h"

namespace serd::nn {

/// Reverse-mode autodiff tape. Each op computes its forward result eagerly
/// and records a closure that propagates gradients to its inputs.
/// Backward() runs the closures in reverse order. One Tape instance is
/// built per forward pass (per example); Clear() resets it for reuse.
///
/// All ops treat tensors as 2-D row-major float matrices. Gradients
/// accumulate (+=) so shared subexpressions are handled correctly.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// a[m,k] * b[k,n] -> [m,n]
  TensorPtr MatMul(const TensorPtr& a, const TensorPtr& b);

  /// Elementwise a + b (same shape).
  TensorPtr Add(const TensorPtr& a, const TensorPtr& b);

  /// x[m,n] + bias[1,n] broadcast over rows.
  TensorPtr AddRowBroadcast(const TensorPtr& x, const TensorPtr& bias);

  /// max(0, x + bias) with bias[1,n] broadcast over rows: the fused
  /// linear-layer epilogue (kernels::BiasRelu).
  TensorPtr BiasRelu(const TensorPtr& x, const TensorPtr& bias);

  /// Elementwise a * b (same shape).
  TensorPtr Mul(const TensorPtr& a, const TensorPtr& b);

  /// x * s for a constant scalar s.
  TensorPtr Scale(const TensorPtr& x, float s);

  /// Matrix transpose.
  TensorPtr Transpose(const TensorPtr& x);

  /// Row-wise softmax. If `add_mask` is non-null it must have x->size()
  /// entries; it is added to the logits before the softmax (use large
  /// negative values to mask attention positions). The mask is a constant.
  TensorPtr RowSoftmax(const TensorPtr& x,
                       const std::vector<float>* add_mask = nullptr);

  /// Row-wise layer normalization with learned gain/bias (each [1,n]).
  TensorPtr LayerNorm(const TensorPtr& x, const TensorPtr& gamma,
                      const TensorPtr& beta, float eps = 1e-5f);

  TensorPtr Relu(const TensorPtr& x);
  TensorPtr Gelu(const TensorPtr& x);  ///< tanh approximation
  TensorPtr Sigmoid(const TensorPtr& x);
  TensorPtr Tanh(const TensorPtr& x);

  /// Gathers rows of `table`[V,d] by ids -> [len(ids), d]. Out-of-range
  /// ids abort.
  TensorPtr EmbeddingLookup(const TensorPtr& table,
                            const std::vector<int>& ids);

  /// Column slice x[:, start:start+len].
  TensorPtr SliceCols(const TensorPtr& x, size_t start, size_t len);

  /// Horizontal concatenation of same-row-count tensors.
  TensorPtr ConcatCols(const std::vector<TensorPtr>& xs);

  /// Inverted dropout (scales kept units by 1/(1-p)). Pass p = 0 to
  /// disable; callers skip the op entirely at inference time.
  TensorPtr Dropout(const TensorPtr& x, float p, Rng* rng);

  /// Mean cross-entropy over rows of logits[T,V] against integer targets
  /// (length T). Rows whose target equals `ignore_index` contribute
  /// nothing. Returns a 1x1 scalar.
  TensorPtr CrossEntropy(const TensorPtr& logits,
                         const std::vector<int>& targets,
                         int ignore_index = -1);

  /// Binary cross-entropy with logits: mean over all elements of
  /// -[t log sigmoid(x) + (1-t) log(1 - sigmoid(x))] with scalar target t.
  TensorPtr BceWithLogits(const TensorPtr& logits, float target);

  /// Mean of all elements -> 1x1.
  TensorPtr MeanAll(const TensorPtr& x);

  /// Seeds d(loss)=1 and runs all recorded closures in reverse.
  /// `loss` must be 1x1.
  void Backward(const TensorPtr& loss);

  /// Runs the closures in reverse without seeding; the caller has already
  /// written output gradients (used for losses with analytic gradients).
  void BackwardFromSeeded();

  /// Drops all recorded nodes (the tensors survive via shared_ptr).
  void Clear() { nodes_.clear(); }

  size_t num_nodes() const { return nodes_.size(); }

  /// Disables recording of backward closures: ops compute forward values
  /// only. Used for inference (autoregressive decoding, discriminator
  /// scoring) where gradients are never needed.
  void set_recording(bool recording) { recording_ = recording; }
  bool recording() const { return recording_; }

  /// Allocates all op results from `arena` instead of the heap. The arena
  /// must outlive the tape and may only be Reset() after the tape (and
  /// any result tensors the caller wants recycled) are dropped.
  void set_arena(TensorArena* arena) { arena_ = arena; }
  TensorArena* arena() const { return arena_; }

 private:
  /// An op's result: zeroed grad, value to be overwritten by the op.
  TensorPtr NewResult(size_t rows, size_t cols);
  /// A forward cache the op keeps for its backward (no grad buffer).
  TensorPtr NewScratch(size_t rows, size_t cols);
  void Record(std::function<void()> backward_fn);

  std::vector<std::function<void()>> nodes_;
  TensorArena* arena_ = nullptr;
  bool recording_ = true;
};

}  // namespace serd::nn

#endif  // SERD_NN_TAPE_H_
