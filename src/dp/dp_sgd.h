#ifndef SERD_DP_DP_SGD_H_
#define SERD_DP_DP_SGD_H_

#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace serd {

/// DP-SGD hyperparameters (paper Algorithm 1: noise scale sigma, gradient
/// norm bound V). When `enabled` is false the accumulator degrades to
/// plain minibatch gradient averaging, which lets every trainer share one
/// code path and makes the DP-on/off ablation a config flip.
struct DpSgdConfig {
  bool enabled = true;
  double clip_norm = 1.0;        ///< V: per-example L2 bound (Alg. 1 line 8)
  double noise_multiplier = 1.0; ///< sigma: noise stddev = sigma * V
};

/// Implements the per-example part of paper Algorithm 1:
///   for each example j: g_j = grad;  g_j <- g_j / max(1, ||g_j||_2 / V)
///   g~ = (sum_j g_j + N(0, sigma^2 V^2 I)) / J
///
/// Usage per minibatch:
///   acc.BeginBatch();
///   for each example: zero grads, forward, backward, acc.AccumulateExample();
///   acc.FinishBatch(J, rng);   // leaves g~ in the params' grad buffers
///   optimizer.Step();
class PerExampleGradAccumulator {
 public:
  PerExampleGradAccumulator(std::vector<nn::TensorPtr> params,
                            DpSgdConfig config);

  void BeginBatch();

  /// Clips the gradients currently stored in the parameters and adds them
  /// to the batch sum. Clears the parameter grads afterwards so the next
  /// example starts clean. Returns the example's pre-clip gradient norm.
  double AccumulateExample();

  /// One example's raw gradient: every parameter's gradient flattened
  /// into one buffer, in parameter order. Callers keep one per example of
  /// a batch and reuse them across batches.
  using ExampleGrad = std::vector<float>;

  /// Parallel-training half of AccumulateExample: moves the gradients
  /// stored in `replica_params` (a value-identical copy of the trained
  /// model's parameters) into `out` and zeroes them in the same pass.
  /// Touches no accumulator state, so worker threads may call it
  /// concurrently for distinct replicas and outputs.
  void TakeGradient(const std::vector<nn::TensorPtr>& replica_params,
                    ExampleGrad* out) const;

  /// The other half: clips grads[0..count) (Alg. 1 line 8, each by its
  /// own pre-clip norm) and adds them to the batch sum in index order, so
  /// the sum does not depend on which thread produced which gradient.
  /// Writes the pre-clip norms to norms[0..count).
  void ClipAndMerge(const std::vector<ExampleGrad>& grads, size_t count,
                    double* norms);

  /// Adds Gaussian noise (if enabled), divides by `batch_size`, and writes
  /// the result back into the parameters' grad buffers.
  void FinishBatch(size_t batch_size, Rng* rng);

  const DpSgdConfig& config() const { return config_; }

 private:
  std::vector<nn::TensorPtr> params_;
  DpSgdConfig config_;
  size_t total_size_ = 0;   // sum of the parameters' element counts
  std::vector<float> sum_;  // flattened in parameter order
  std::vector<ExampleGrad> single_;  // AccumulateExample's one slot
};

}  // namespace serd

#endif  // SERD_DP_DP_SGD_H_
