#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/tape.h"
#include "nn/tensor.h"

namespace serd::nn {
namespace {

namespace k = kernels;

std::vector<float> RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  std::vector<float> m(rows * cols);
  for (float& v : m) {
    v = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return m;
}

/// Scalar triple loop over logical A[m,k] (strides ars/acs) and B[k,n]
/// (strides brs/bcs) — the oracle for every Gemm variant.
std::vector<float> NaiveGemm(size_t m, size_t n, size_t kk, const float* a,
                             size_t ars, size_t acs, const float* b,
                             size_t brs, size_t bcs,
                             const std::vector<float>& c_init) {
  std::vector<float> c = c_init;
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < kk; ++p) {
      float av = a[i * ars + p * acs];
      for (size_t j = 0; j < n; ++j) {
        c[i * n + j] += av * b[p * brs + j * bcs];
      }
    }
  }
  return c;
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& want,
                float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

// Shapes chosen to cover full tiles, partial edge tiles in both m and n,
// k larger and smaller than the KC block, and degenerate vectors.
struct Shape {
  size_t m, n, k;
};
const Shape kShapes[] = {{1, 1, 1},    {3, 5, 7},    {16, 16, 16},
                         {17, 31, 13}, {6, 16, 300}, {64, 48, 24},
                         {1, 97, 11},  {33, 1, 29},  {130, 70, 257}};

TEST(KernelsTest, GemmNNMatchesReference) {
  Rng rng(11);
  for (const auto& s : kShapes) {
    auto a = RandomMatrix(s.m, s.k, &rng);
    auto b = RandomMatrix(s.k, s.n, &rng);
    std::vector<float> want(s.m * s.n, 0.0f);
    k::ReferenceGemmNN(s.m, s.n, s.k, a.data(), b.data(), want.data());
    std::vector<float> got(s.m * s.n, 0.0f);
    k::GemmNN(s.m, s.n, s.k, a.data(), b.data(), got.data(), false);
    ExpectNear(got, want, 1e-5f * static_cast<float>(s.k));
  }
}

TEST(KernelsTest, GemmNNAccumulateAddsOntoC) {
  Rng rng(12);
  const size_t m = 17, n = 19, kk = 23;
  auto a = RandomMatrix(m, kk, &rng);
  auto b = RandomMatrix(kk, n, &rng);
  auto c0 = RandomMatrix(m, n, &rng);
  auto want = NaiveGemm(m, n, kk, a.data(), kk, 1, b.data(), n, 1, c0);
  auto got = c0;
  k::GemmNN(m, n, kk, a.data(), b.data(), got.data(), true);
  ExpectNear(got, want, 1e-4f);
}

TEST(KernelsTest, GemmNNOverwriteIgnoresGarbageInC) {
  Rng rng(13);
  const size_t m = 9, n = 33, kk = 500;  // k spans multiple KC blocks
  auto a = RandomMatrix(m, kk, &rng);
  auto b = RandomMatrix(kk, n, &rng);
  auto want = NaiveGemm(m, n, kk, a.data(), kk, 1, b.data(), n, 1,
                        std::vector<float>(m * n, 0.0f));
  std::vector<float> got(m * n, 1e30f);
  k::GemmNN(m, n, kk, a.data(), b.data(), got.data(), false);
  ExpectNear(got, want, 1e-3f);
}

TEST(KernelsTest, GemmNTMatchesNaive) {
  Rng rng(14);
  for (const auto& s : kShapes) {
    auto a = RandomMatrix(s.m, s.k, &rng);
    auto bt = RandomMatrix(s.n, s.k, &rng);  // B stored [n, k]
    auto want = NaiveGemm(s.m, s.n, s.k, a.data(), s.k, 1, bt.data(), 1, s.k,
                          std::vector<float>(s.m * s.n, 0.0f));
    std::vector<float> got(s.m * s.n, 0.0f);
    k::GemmNT(s.m, s.n, s.k, a.data(), bt.data(), got.data(), true);
    ExpectNear(got, want, 1e-5f * static_cast<float>(s.k));
  }
}

TEST(KernelsTest, GemmTNMatchesNaive) {
  Rng rng(15);
  for (const auto& s : kShapes) {
    auto at = RandomMatrix(s.k, s.m, &rng);  // A stored [k, m]
    auto b = RandomMatrix(s.k, s.n, &rng);
    auto want = NaiveGemm(s.m, s.n, s.k, at.data(), 1, s.m, b.data(), s.n, 1,
                          std::vector<float>(s.m * s.n, 0.0f));
    std::vector<float> got(s.m * s.n, 0.0f);
    k::GemmTN(s.m, s.n, s.k, at.data(), b.data(), got.data(), true);
    ExpectNear(got, want, 1e-5f * static_cast<float>(s.k));
  }
}

TEST(KernelsTest, GemmIsDeterministicAcrossCalls) {
  Rng rng(16);
  const size_t m = 48, n = 40, kk = 96;
  auto a = RandomMatrix(m, kk, &rng);
  auto b = RandomMatrix(kk, n, &rng);
  std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f);
  k::GemmNN(m, n, kk, a.data(), b.data(), c1.data(), false);
  k::GemmNN(m, n, kk, a.data(), b.data(), c2.data(), false);
  EXPECT_EQ(c1, c2);  // bit-identical, not merely close
}

/// One GEMM variant under test: logical A (m x k) and B (k x n) views
/// onto stored buffers, described by strides.
struct GemmCase {
  const char* name;
  size_t a_rows, a_cols;  // stored A shape
  size_t ars, acs;        // logical A(i,p) = a[i*ars + p*acs]
  size_t b_rows, b_cols;  // stored B shape
  size_t brs, bcs;        // logical B(p,j) = b[p*brs + j*bcs]
};

TEST(KernelsTest, MultiTileRowsMatchOneRowCallsBitwise) {
  // m = 13 is two full 6-row panels plus a 1-row edge; n = 37 is two full
  // 16-column panels plus a 5-column edge, so one call mixes in-place full
  // tiles, register write-back and packed edge tiles. Each row of C is
  // one chain per element over k, so a 1-row call (always an edge panel)
  // must reproduce it bit for bit. k = 300 crosses the 256-deep K block.
  const size_t m = 13, n = 37;
  Rng rng(31);
  for (size_t kk : {29u, 300u}) {
    const GemmCase cases[] = {
        {"NN", m, kk, kk, 1, kk, n, n, 1},
        {"NT", m, kk, kk, 1, n, kk, 1, kk},
        {"TN", kk, m, 1, m, kk, n, n, 1},
        // Strided views: every other column of a wider A, and a column
        // slice of a wider B (the KV-cache head-slice layout).
        {"Strided", m, 2 * kk, 2 * kk, 2, kk, n + 9, n + 9, 1},
    };
    for (const GemmCase& g : cases) {
      for (bool accumulate : {false, true}) {
        SCOPED_TRACE(testing::Message() << g.name << " k=" << kk
                                        << " accumulate=" << accumulate);
        auto a = RandomMatrix(g.a_rows, g.a_cols, &rng);
        auto b = RandomMatrix(g.b_rows, g.b_cols, &rng);
        auto c0 = RandomMatrix(m, n, &rng);
        auto full = c0;
        k::GemmStrided(m, n, kk, a.data(), g.ars, g.acs, b.data(), g.brs,
                       g.bcs, full.data(), accumulate);
        for (size_t i = 0; i < m; ++i) {
          std::vector<float> row(c0.begin() + i * n, c0.begin() + (i + 1) * n);
          k::GemmStrided(1, n, kk, a.data() + i * g.ars, g.ars, g.acs,
                         b.data(), g.brs, g.bcs, row.data(), accumulate);
          const std::vector<float> want(full.begin() + i * n,
                                        full.begin() + (i + 1) * n);
          ASSERT_EQ(row, want) << "row " << i;
        }
      }
    }
  }
}

TEST(KernelsTest, DenseEntryPointsMatchStridedCallsBitwise) {
  // GemmNN/NT/TN are GemmStrided with fixed strides. NN reads B's full
  // column panels in place while NT on the transposed copy must pack them;
  // both give the same chains, hence the same bits.
  const size_t m = 19, n = 40, kk = 33;
  Rng rng(32);
  auto a = RandomMatrix(m, kk, &rng);
  auto b = RandomMatrix(kk, n, &rng);
  std::vector<float> bt(n * kk), at(kk * m);
  for (size_t p = 0; p < kk; ++p) {
    for (size_t j = 0; j < n; ++j) bt[j * kk + p] = b[p * n + j];
    for (size_t i = 0; i < m; ++i) at[p * m + i] = a[i * kk + p];
  }
  for (bool accumulate : {false, true}) {
    auto c0 = RandomMatrix(m, n, &rng);
    auto nn = c0, nt = c0, tn = c0;
    k::GemmNN(m, n, kk, a.data(), b.data(), nn.data(), accumulate);
    k::GemmNT(m, n, kk, a.data(), bt.data(), nt.data(), accumulate);
    k::GemmTN(m, n, kk, at.data(), b.data(), tn.data(), accumulate);
    EXPECT_EQ(nn, nt);
    EXPECT_EQ(nn, tn);
  }
}

/// GELU's tanh form evaluated in double: the accuracy reference.
double GeluReference(double x) {
  const double u = std::sqrt(2.0 / M_PI) * (x + 0.044715 * x * x * x);
  return 0.5 * x * (1.0 + std::tanh(u));
}

TEST(KernelsTest, GeluWithinBoundOfDoubleReference) {
  // Every float on a 1e-4 grid over [-12, 12]: the clamped rational tanh
  // stays within 2e-6 absolute of the double-precision GELU (float
  // std::tanh measures 4.3e-7 on the same grid).
  std::vector<float> x;
  for (long i = -120000; i <= 120000; ++i) {
    x.push_back(static_cast<float>(static_cast<double>(i) * 1e-4));
  }
  std::vector<float> out(x.size()), t(x.size());
  k::Gelu(x.size(), x.data(), out.data(), t.data());
  double worst = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::fabs(out[i] - GeluReference(x[i])));
    // The saved tanh is the one the forward value was built from.
    ASSERT_EQ(out[i], 0.5f * x[i] * (1.0f + t[i])) << "x=" << x[i];
    ASSERT_LE(std::fabs(t[i]), 1.0f) << "x=" << x[i];
  }
  EXPECT_LE(worst, 2e-6);
  // Odd symmetry of tanh carries over exactly: GELU(x) - GELU(-x) = x.
  const float v = 0.731f, nv = -0.731f;
  float gv = 0.0f, gnv = 0.0f;
  k::Gelu(1, &v, &gv, nullptr);
  k::Gelu(1, &nv, &gnv, nullptr);
  EXPECT_NEAR(gv - gnv, v, 1e-7f);
}

TEST(KernelsTest, GeluBitsDoNotDependOnTheBuild) {
  // Gelu is compiled without FMA contraction and uses no libm call, so the
  // baseline (SSE2), -march=native (AVX2/AVX-512 + FMA) and any -O level
  // produce the same floats: an FNV-1a digest of the grid pins them.
  std::vector<float> x;
  for (long i = -120000; i <= 120000; ++i) {
    x.push_back(static_cast<float>(static_cast<double>(i) * 1e-4));
  }
  std::vector<float> out(x.size());
  k::Gelu(x.size(), x.data(), out.data(), nullptr);
  uint64_t digest = 1469598103934665603ULL;
  for (float v : out) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    digest = (digest ^ bits) * 1099511628211ULL;
  }
  EXPECT_EQ(digest, 0x2b6106a21ef7eae0ULL);
}

TEST(KernelsTest, GeluInPlaceAndWithoutTanhOutputAreBitIdentical) {
  // The decode paths call Gelu in place with no tanh output; the tape
  // calls it out of place with one. Both must produce the same bits, over
  // lengths that are not multiples of the kernel's internal block.
  Rng rng(33);
  for (size_t n : {1u, 7u, 255u, 256u, 257u, 1000u}) {
    std::vector<float> x(n);
    for (float& v : x) v = static_cast<float>(rng.Uniform(-9.0, 9.0));
    std::vector<float> out(n), t(n);
    k::Gelu(n, x.data(), out.data(), t.data());
    std::vector<float> in_place = x;
    k::Gelu(n, in_place.data(), in_place.data(), nullptr);
    EXPECT_EQ(in_place, out) << "n=" << n;
  }
}

TEST(KernelsTest, TapeGeluEqualsKernelBitwise) {
  Rng rng(34);
  auto x = MakeTensor(5, 37);
  for (float& v : x->value()) {
    v = static_cast<float>(rng.Uniform(-6.0, 6.0));
  }
  std::vector<float> want(x->size());
  k::Gelu(x->size(), x->value().data(), want.data(), nullptr);
  for (bool recording : {true, false}) {
    Tape tape;
    tape.set_recording(recording);
    EXPECT_EQ(tape.Gelu(x)->value(), want) << "recording=" << recording;
  }
}

TEST(KernelsTest, SoftmaxRowsNormalizesAndAppliesMask) {
  const size_t rows = 2, cols = 3;
  std::vector<float> x = {1.0f, 2.0f, 3.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> mask = {0.0f, 0.0f, -1e9f, 0.0f, 0.0f, 0.0f};
  std::vector<float> out(rows * cols);
  k::SoftmaxRows(rows, cols, x.data(), mask.data(), out.data());
  for (size_t r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) sum += out[r * cols + c];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_NEAR(out[2], 0.0f, 1e-6f);           // masked logit
  EXPECT_NEAR(out[3], 1.0f / 3.0f, 1e-5f);    // uniform row
}

TEST(KernelsTest, BiasReluMatchesScalar) {
  Rng rng(17);
  const size_t rows = 5, cols = 13;
  auto x = RandomMatrix(rows, cols, &rng);
  auto bias = RandomMatrix(1, cols, &rng);
  std::vector<float> out(rows * cols);
  k::BiasRelu(rows, cols, x.data(), bias.data(), out.data());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      float want = std::max(0.0f, x[r * cols + c] + bias[c]);
      EXPECT_FLOAT_EQ(out[r * cols + c], want);
    }
  }
}

TEST(KernelsTest, LayerNormRowsNormalizes) {
  Rng rng(18);
  const size_t rows = 4, cols = 16;
  auto x = RandomMatrix(rows, cols, &rng);
  std::vector<float> gamma(cols, 1.0f), beta(cols, 0.0f);
  std::vector<float> out(rows * cols);
  k::LayerNormRows(rows, cols, x.data(), gamma.data(), beta.data(), 1e-5f,
                   out.data(), nullptr, nullptr);
  for (size_t r = 0; r < rows; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (size_t c = 0; c < cols; ++c) mean += out[r * cols + c];
    mean /= cols;
    for (size_t c = 0; c < cols; ++c) {
      float d = out[r * cols + c] - mean;
      var += d * d;
    }
    var /= cols;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

// ----------------------------------------------------------------- arena

TEST(ArenaTest, ReusesTensorsAfterReset) {
  TensorArena arena;
  TensorPtr t0 = arena.Allocate(4, 8);
  for (float& g : t0->grad()) g = 7.0f;  // a used gradient
  Tensor* raw = t0.get();
  t0.reset();  // drop our reference so the slot is reusable
  EXPECT_EQ(arena.pooled(), 1u);
  arena.Reset();
  TensorPtr t1 = arena.Allocate(2, 3);
  EXPECT_EQ(t1.get(), raw);  // same tensor, recycled
  EXPECT_EQ(t1->rows(), 2u);
  EXPECT_EQ(t1->cols(), 3u);
  EXPECT_EQ(t1->size(), 6u);
  // Grads come back zeroed (backward accumulates into them); values are
  // left for the caller to overwrite (see TensorArena's zeroing rule).
  ASSERT_EQ(t1->grad().size(), 6u);
  for (float g : t1->grad()) EXPECT_EQ(g, 0.0f);
  EXPECT_EQ(arena.pooled(), 1u);
}

TEST(ArenaTest, ScratchHasNoGradBuffer) {
  TensorArena arena;
  TensorPtr t0 = arena.Allocate(3, 4);
  t0.reset();
  arena.Reset();
  TensorPtr s = arena.Scratch(2, 5);
  EXPECT_EQ(s->size(), 10u);
  EXPECT_TRUE(s->grad().empty());
}

TEST(ArenaTest, EscapedTensorIsLeftToItsOwner) {
  TensorArena arena;
  TensorPtr kept = arena.Allocate(3, 3);
  kept->value()[0] = 42.0f;
  arena.Reset();
  // `kept` is still referenced here, so reuse must hand out a different
  // tensor and leave `kept` untouched.
  TensorPtr fresh = arena.Allocate(3, 3);
  EXPECT_NE(fresh.get(), kept.get());
  EXPECT_EQ(kept->value()[0], 42.0f);
}

TEST(ArenaTest, SteadyStatePoolSizeIsStable) {
  TensorArena arena;
  size_t after_first = 0;
  for (int step = 0; step < 5; ++step) {
    arena.Reset();
    std::vector<TensorPtr> live;
    for (int i = 0; i < 10; ++i) {
      live.push_back(arena.Allocate(8, 8));
    }
    live.clear();
    if (step == 0) after_first = arena.pooled();
    EXPECT_EQ(arena.pooled(), after_first);
  }
  EXPECT_EQ(after_first, 10u);
}

TEST(ArenaTest, TapeOnArenaMatchesHeapTape) {
  // The same graph computed with and without an arena must produce
  // bit-identical values and gradients.
  Rng rng(19);
  auto x = MakeTensor(4, 6);
  auto w = MakeTensor(6, 3);
  for (float& v : x->value()) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : w->value()) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  x->EnsureGrad();
  w->EnsureGrad();

  auto run = [&](TensorArena* arena) {
    x->ZeroGrad();
    w->ZeroGrad();
    Tape tape;
    if (arena != nullptr) {
      arena->Reset();
      tape.set_arena(arena);
    }
    TensorPtr y = tape.Relu(tape.MatMul(x, w));
    TensorPtr loss = tape.MeanAll(y);
    tape.Backward(loss);
    return std::make_pair(loss->value()[0], w->grad());
  };

  auto [loss_heap, grad_heap] = run(nullptr);
  TensorArena arena;
  auto [loss_arena, grad_arena] = run(&arena);
  // Run twice on the arena: the second pass reuses pooled tensors.
  auto [loss_arena2, grad_arena2] = run(&arena);
  EXPECT_EQ(loss_heap, loss_arena);
  EXPECT_EQ(grad_heap, grad_arena);
  EXPECT_EQ(loss_heap, loss_arena2);
  EXPECT_EQ(grad_heap, grad_arena2);
}

}  // namespace
}  // namespace serd::nn
