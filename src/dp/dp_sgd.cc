#include "dp/dp_sgd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace serd {

PerExampleGradAccumulator::PerExampleGradAccumulator(
    std::vector<nn::TensorPtr> params, DpSgdConfig config)
    : params_(std::move(params)), config_(config), single_(1) {
  SERD_CHECK(!params_.empty());
  SERD_CHECK_GT(config_.clip_norm, 0.0);
  SERD_CHECK_GE(config_.noise_multiplier, 0.0);
  for (const auto& p : params_) total_size_ += p->size();
  sum_.assign(total_size_, 0.0f);
}

void PerExampleGradAccumulator::BeginBatch() {
  std::fill(sum_.begin(), sum_.end(), 0.0f);
}

double PerExampleGradAccumulator::AccumulateExample() {
  TakeGradient(params_, &single_[0]);
  double norm = 0.0;
  ClipAndMerge(single_, 1, &norm);
  return norm;
}

void PerExampleGradAccumulator::TakeGradient(
    const std::vector<nn::TensorPtr>& replica_params,
    ExampleGrad* out) const {
  SERD_CHECK(out != nullptr);
  SERD_CHECK_EQ(replica_params.size(), params_.size());
  out->resize(total_size_);
  float* o = out->data();
  for (const auto& p : replica_params) {
    // A parameter untouched by this example's graph may have no grad
    // buffer; it contributes zeros.
    auto& g = p->grad();
    if (g.empty()) {
      std::fill(o, o + p->size(), 0.0f);
    } else {
      SERD_CHECK_EQ(g.size(), p->size());
      std::copy(g.begin(), g.end(), o);
      std::fill(g.begin(), g.end(), 0.0f);
    }
    o += p->size();
  }
}

void PerExampleGradAccumulator::ClipAndMerge(
    const std::vector<ExampleGrad>& grads, size_t count, double* norms) {
  SERD_CHECK_LE(count, grads.size());
  SERD_CHECK(norms != nullptr || count == 0);
  // Each norm is one sequential double chain in parameter order, so it
  // (and every clipped value) is fixed by the gradient alone. A single
  // chain is bound by add latency; up to kLanes examples' chains advance
  // together so the adds overlap.
  constexpr size_t kLanes = 8;
  for (size_t k0 = 0; k0 < count; k0 += kLanes) {
    const size_t lanes = std::min(kLanes, count - k0);
    const float* g[kLanes] = {};
    for (size_t l = 0; l < lanes; ++l) {
      SERD_CHECK_EQ(grads[k0 + l].size(), total_size_);
      g[l] = grads[k0 + l].data();
    }
    double norm_sq[kLanes] = {};
    for (size_t i = 0; i < total_size_; ++i) {
      for (size_t l = 0; l < lanes; ++l) {
        norm_sq[l] += static_cast<double>(g[l][i]) * g[l][i];
      }
    }
    // Ordered merge of the clipped gradients: Alg. 1 line 8 divides by
    // max(1, ||g||_2 / V), then the batch sum adds examples in order.
    float* s = sum_.data();
    for (size_t l = 0; l < lanes; ++l) {
      const double norm = std::sqrt(norm_sq[l]);
      norms[k0 + l] = norm;
      const double scale =
          config_.enabled ? 1.0 / std::max(1.0, norm / config_.clip_norm)
                          : 1.0;
      for (size_t i = 0; i < total_size_; ++i) {
        s[i] += static_cast<float>(g[l][i] * scale);
      }
    }
  }
}

void PerExampleGradAccumulator::FinishBatch(size_t batch_size, Rng* rng) {
  SERD_CHECK_GT(batch_size, 0u);
  SERD_CHECK(rng != nullptr);
  const double noise_std =
      config_.enabled ? config_.noise_multiplier * config_.clip_norm : 0.0;
  const float inv_j = 1.0f / static_cast<float>(batch_size);
  const float* s = sum_.data();
  for (const auto& p : params_) {
    auto& g = p->grad();
    for (size_t i = 0; i < g.size(); ++i) {
      double noisy = s[i];
      if (noise_std > 0.0) noisy += rng->Gaussian(0.0, noise_std);
      g[i] = static_cast<float>(noisy * inv_j);
    }
    s += p->size();
  }
}

}  // namespace serd
