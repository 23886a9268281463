#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

// The AVX2+FMA clone below only makes sense on x86-64 GCC/Clang builds
// that are not already compiled for AVX2 (SERD_NATIVE on such a host).
#if defined(__x86_64__) && defined(__GNUC__) && \
    !(defined(__AVX2__) && defined(__FMA__))
#define SERD_KERNELS_X86_DISPATCH 1
#else
#define SERD_KERNELS_X86_DISPATCH 0
#endif

#if SERD_KERNELS_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serd::nn::kernels {

namespace {

// Cache blocking (floats), shared by every ISA variant: a KC x NR B-panel
// (~8-32 KB) stays in L1 across an MC-row sweep, an MC x KC A-block
// (~128 KB) in L2. The transformer-scale GEMMs here (T, d_model, ffn_dim
// <= a few hundred) usually fit in one block; the outer loops only matter
// for the larger vocab-projection and batch matmuls.
constexpr std::size_t kMc = 128;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 1024;

// The GEMM core (pack + micro/macro kernel, kernels_gemm.inc) is
// instantiated once per register-tile/ISA variant. The micro-kernel keeps
// an MR x NR float accumulator live across the full K extent; with
// 256-bit vectors the compiler maps each row to NR/8 ymm registers (6x16
// = 12 accumulator ymms), with plain SSE2 the narrower 4x8 tile avoids
// spills.

namespace portable {
#if defined(__AVX__)
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
#else
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
#endif
#include "nn/kernels_gemm.inc"
}  // namespace portable

#if SERD_KERNELS_X86_DISPATCH
// Runtime-dispatched clone for AVX2+FMA hosts: the baseline (SSE2) build
// still reaches fused 256-bit arithmetic where the CPU has it. The
// selection is a per-process constant, so results remain bit-identical
// across runs and thread counts on a given machine; as with SERD_NATIVE,
// different ISAs may round differently (FMA contraction) between
// machines.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
#define SERD_GEMM_USE_AVX2_MICROKERNEL 1
#include "nn/kernels_gemm.inc"
#undef SERD_GEMM_USE_AVX2_MICROKERNEL
}  // namespace avx2
#pragma GCC pop_options

bool UseAvx2() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}
#endif  // SERD_KERNELS_X86_DISPATCH

}  // namespace

/// Shared blocked driver: sizes the thread-local packing scratch (no
/// allocation after warmup; never shared, one model replica per thread)
/// and hands off to the ISA variant. Strides as in GemmStridedImpl.
void GemmStrided(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t ars, std::size_t acs, const float* b,
                 std::size_t brs, std::size_t bcs, float* c,
                 bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (std::size_t i = 0; i < m * n; ++i) c[i] = 0.0f;
    }
    return;
  }
  thread_local std::vector<float> apack;
  thread_local std::vector<float> bpack;
  // Pad the block extents so the scratch size covers every variant's
  // panel rounding (ceil to MR resp. NR, both <= 16); +16 is a safe upper
  // bound even for MR = 6, which does not divide 16.
  const std::size_t kc_max = std::min(kKc, k);
  const std::size_t mc_pad = std::min(kMc, m) + 16;
  const std::size_t nc_pad = std::min(kNc, n) + 16;
  if (apack.size() < mc_pad * kc_max) apack.resize(mc_pad * kc_max);
  if (bpack.size() < kc_max * nc_pad) bpack.resize(kc_max * nc_pad);
#if SERD_KERNELS_X86_DISPATCH
  if (UseAvx2()) {
    avx2::GemmStridedImpl(m, n, k, a, ars, acs, b, brs, bcs, c, accumulate,
                          apack.data(), bpack.data());
    return;
  }
#endif
  portable::GemmStridedImpl(m, n, k, a, ars, acs, b, brs, bcs, c, accumulate,
                            apack.data(), bpack.data());
}

void GemmNN(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate) {
  GemmStrided(m, n, k, a, k, 1, b, n, 1, c, accumulate);
}

void GemmNT(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate) {
  GemmStrided(m, n, k, a, k, 1, b, 1, k, c, accumulate);
}

void GemmTN(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate) {
  GemmStrided(m, n, k, a, 1, m, b, n, 1, c, accumulate);
}

void ReferenceGemmNN(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      float x = a[i * k + p];
      if (x == 0.0f) continue;
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += x * brow[j];
    }
  }
}

void Axpy(std::size_t n, float alpha, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AddInto(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void Add(std::size_t n, const float* a, const float* b, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void ScaleCopy(std::size_t n, float s, const float* x, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

void BiasRelu(std::size_t rows, std::size_t cols, const float* x,
              const float* bias, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    if (bias != nullptr) {
      for (std::size_t c = 0; c < cols; ++c) {
        const float v = xr[c] + bias[c];
        or_[c] = v > 0.0f ? v : 0.0f;
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        or_[c] = xr[c] > 0.0f ? xr[c] : 0.0f;
      }
    }
  }
}

void SoftmaxRows(std::size_t rows, std::size_t cols, const float* x,
                 const float* add_mask, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    float hi = -1e30f;
    if (add_mask != nullptr) {
      const float* mr = add_mask + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        const float v = xr[c] + mr[c];
        or_[c] = v;
        hi = std::max(hi, v);
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        or_[c] = xr[c];
        hi = std::max(hi, xr[c]);
      }
    }
    float total = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float e = std::exp(or_[c] - hi);
      or_[c] = e;
      total += e;
    }
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < cols; ++c) or_[c] *= inv;
  }
}

// Gelu is the one kernel whose results must not depend on the build's
// instruction set: compiled with -march=native (SERD_NATIVE) GCC would
// otherwise contract its multiply-adds into FMAs, which round differently
// from the baseline build. fp-contract=off pins the rounding;
// no-trapping-math only lets the clamp's compare-selects be if-converted
// so the loop vectorizes (no trap is ever enabled), and changes no value.
#if defined(__GNUC__) && !defined(__clang__)
#define SERD_GELU_FP_EXACT \
  __attribute__((optimize("fp-contract=off", "no-trapping-math")))
#else
#define SERD_GELU_FP_EXACT
#endif

SERD_GELU_FP_EXACT void Gelu(std::size_t n, const float* x, float* out,
                             float* tanh_u) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  // tanh(u) ~= u * P(u^2) / Q(u^2), a relative-error minimax rational fit
  // on |u| <= 9 (max relative error 6e-8 in exact arithmetic). Past the
  // clamp tanh(9) = 1 - 3e-8 already rounds to 1.0f, and saturated inputs
  // give exactly +-1. Against a double-precision GELU the float result
  // stays within 1e-6 absolute on [-12, 12] (kernels_test bounds it at
  // 2e-6).
  constexpr float kClamp = 9.0f;
  constexpr float kP0 = 0.99999994f;
  constexpr float kP1 = 0.129192382f;
  constexpr float kP2 = 0.00292076916f;
  constexpr float kP3 = 9.26742996e-06f;
  constexpr float kP4 = -1.27802764e-08f;
  constexpr float kP5 = 1.82543789e-11f;
  constexpr float kQ1 = 0.462525219f;
  constexpr float kQ2 = 0.0237632077f;
  constexpr float kQ3 = 0.000228100806f;
  // Blocks so the loop body has no branch (it always stores tanh(u),
  // into the caller's buffer or this scratch) and auto-vectorizes.
  constexpr std::size_t kBlock = 256;
  float scratch[kBlock];
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::size_t len = n - i0 < kBlock ? n - i0 : kBlock;
    const float* xb = x + i0;
    float* ob = out + i0;
    float* tb = tanh_u != nullptr ? tanh_u + i0 : scratch;
    for (std::size_t i = 0; i < len; ++i) {
      const float v = xb[i];
      float u = kC * (v + 0.044715f * v * v * v);
      u = u < -kClamp ? -kClamp : u;
      u = u > kClamp ? kClamp : u;
      const float s = u * u;
      const float p =
          ((((kP5 * s + kP4) * s + kP3) * s + kP2) * s + kP1) * s + kP0;
      const float q = ((kQ3 * s + kQ2) * s + kQ1) * s + 1.0f;
      // Rounding can leave the quotient an ulp past +-1 near the clamp;
      // keep |tanh| <= 1 so GELU never changes sign.
      float t = u * p / q;
      t = t > 1.0f ? 1.0f : t;
      t = t < -1.0f ? -1.0f : t;
      tb[i] = t;
      ob[i] = 0.5f * v * (1.0f + t);
    }
  }
}

#undef SERD_GELU_FP_EXACT

void LayerNormRows(std::size_t rows, std::size_t cols, const float* x,
                   const float* gamma, const float* beta, float eps,
                   float* out, float* xhat, float* inv_std) {
  const float inv_n = 1.0f / static_cast<float>(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    float mean = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) mean += xr[c];
    mean *= inv_n;
    float var = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float d = xr[c] - mean;
      var += d * d;
    }
    var *= inv_n;
    const float istd = 1.0f / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std[r] = istd;
    if (xhat != nullptr) {
      float* hr = xhat + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        const float h = (xr[c] - mean) * istd;
        hr[c] = h;
        or_[c] = h * gamma[c] + beta[c];
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        or_[c] = (xr[c] - mean) * istd * gamma[c] + beta[c];
      }
    }
  }
}

}  // namespace serd::nn::kernels
