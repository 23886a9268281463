#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dp/accountant.h"
#include "dp/dp_sgd.h"

namespace serd {
namespace {

using nn::MakeTensor;
using nn::TensorPtr;

// ----------------------------------------------------------------- DP-SGD

class DpSgdTest : public testing::Test {
 protected:
  void SetUp() override {
    p_ = MakeTensor(1, 4);
    p_->EnsureGrad();
  }

  void SetGrad(std::vector<float> g) {
    for (size_t i = 0; i < g.size(); ++i) p_->grad()[i] = g[i];
  }

  TensorPtr p_;
};

TEST_F(DpSgdTest, ClipsLargeGradient) {
  DpSgdConfig cfg;
  cfg.clip_norm = 1.0;
  cfg.noise_multiplier = 0.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  acc.BeginBatch();
  SetGrad({3.0f, 0.0f, 4.0f, 0.0f});  // norm 5 -> scaled by 1/5
  double norm = acc.AccumulateExample();
  EXPECT_NEAR(norm, 5.0, 1e-6);
  Rng rng(1);
  acc.FinishBatch(1, &rng);
  EXPECT_NEAR(p_->grad()[0], 0.6f, 1e-6);
  EXPECT_NEAR(p_->grad()[2], 0.8f, 1e-6);
}

TEST_F(DpSgdTest, SmallGradientNotScaledUp) {
  DpSgdConfig cfg;
  cfg.clip_norm = 10.0;
  cfg.noise_multiplier = 0.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  acc.BeginBatch();
  SetGrad({1.0f, 0.0f, 0.0f, 0.0f});
  acc.AccumulateExample();
  Rng rng(2);
  acc.FinishBatch(1, &rng);
  EXPECT_NEAR(p_->grad()[0], 1.0f, 1e-6);  // max(1, 0.1) = 1: unchanged
}

TEST_F(DpSgdTest, AveragesOverBatch) {
  DpSgdConfig cfg;
  cfg.clip_norm = 100.0;
  cfg.noise_multiplier = 0.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  acc.BeginBatch();
  SetGrad({2.0f, 0, 0, 0});
  acc.AccumulateExample();
  SetGrad({4.0f, 0, 0, 0});
  acc.AccumulateExample();
  Rng rng(3);
  acc.FinishBatch(2, &rng);
  EXPECT_NEAR(p_->grad()[0], 3.0f, 1e-6);
}

TEST_F(DpSgdTest, AccumulateClearsPerExampleGrads) {
  DpSgdConfig cfg;
  PerExampleGradAccumulator acc({p_}, cfg);
  acc.BeginBatch();
  SetGrad({1, 1, 1, 1});
  acc.AccumulateExample();
  for (float g : p_->grad()) EXPECT_EQ(g, 0.0f);
}

TEST_F(DpSgdTest, NoiseHasExpectedScale) {
  DpSgdConfig cfg;
  cfg.clip_norm = 1.0;
  cfg.noise_multiplier = 2.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  Rng rng(5);
  // With zero gradients the output is pure noise / batch.
  const int trials = 4000;
  double sum_sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    acc.BeginBatch();
    SetGrad({0, 0, 0, 0});
    acc.AccumulateExample();
    acc.FinishBatch(1, &rng);
    sum_sq += static_cast<double>(p_->grad()[0]) * p_->grad()[0];
  }
  // Var = (sigma * V)^2 = 4.
  EXPECT_NEAR(sum_sq / trials, 4.0, 0.3);
}

TEST_F(DpSgdTest, DisabledMeansNoClipNoNoise) {
  DpSgdConfig cfg;
  cfg.enabled = false;
  cfg.clip_norm = 0.001;  // would clip hard if enabled
  cfg.noise_multiplier = 100.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  acc.BeginBatch();
  SetGrad({3.0f, 0, 4.0f, 0});
  acc.AccumulateExample();
  Rng rng(7);
  acc.FinishBatch(1, &rng);
  EXPECT_NEAR(p_->grad()[0], 3.0f, 1e-6);
  EXPECT_NEAR(p_->grad()[2], 4.0f, 1e-6);
}

TEST(DpSgdBatchTest, ClipAndMergeMatchesSequentialAccumulation) {
  // The trainer's split path (TakeGradient per example, then one
  // ClipAndMerge that advances up to 8 norm chains together) must give
  // the same norms and batch sum, bit for bit, as clipping and adding one
  // example at a time. 11 examples cover a full 8-lane group and a
  // partial one; the scales put some examples over the bound and some
  // under it.
  const size_t examples = 11;
  std::vector<TensorPtr> params = {MakeTensor(3, 5), MakeTensor(1, 7)};
  for (auto& p : params) p->EnsureGrad();
  DpSgdConfig cfg;
  cfg.clip_norm = 1.0;
  cfg.noise_multiplier = 0.0;
  Rng rng(11);
  std::vector<std::vector<std::vector<float>>> grads(examples);
  for (size_t e = 0; e < examples; ++e) {
    const double scale = 0.05 * static_cast<double>(e + 1);
    for (const auto& p : params) {
      std::vector<float> g(p->size());
      for (float& v : g) v = static_cast<float>(rng.Uniform(-scale, scale));
      grads[e].push_back(g);
    }
  }
  auto load = [&](size_t e) {
    for (size_t pi = 0; pi < params.size(); ++pi) {
      params[pi]->grad() = grads[e][pi];
    }
  };
  auto batch_grad = [&]() {
    std::vector<float> out;
    for (const auto& p : params) {
      out.insert(out.end(), p->grad().begin(), p->grad().end());
    }
    return out;
  };

  PerExampleGradAccumulator sequential(params, cfg);
  sequential.BeginBatch();
  std::vector<double> want_norms;
  for (size_t e = 0; e < examples; ++e) {
    load(e);
    want_norms.push_back(sequential.AccumulateExample());
  }
  Rng noise(1);
  sequential.FinishBatch(examples, &noise);
  const std::vector<float> want = batch_grad();

  PerExampleGradAccumulator split(params, cfg);
  split.BeginBatch();
  std::vector<PerExampleGradAccumulator::ExampleGrad> slots(examples);
  for (size_t e = 0; e < examples; ++e) {
    load(e);
    split.TakeGradient(params, &slots[e]);
    for (const auto& p : params) {
      for (float g : p->grad()) ASSERT_EQ(g, 0.0f);
    }
  }
  std::vector<double> norms(examples);
  split.ClipAndMerge(slots, examples, norms.data());
  split.FinishBatch(examples, &noise);
  EXPECT_EQ(norms, want_norms);
  EXPECT_EQ(batch_grad(), want);
  // Each norm is the plain sequential double sum in parameter order.
  for (size_t e = 0; e < examples; ++e) {
    double norm_sq = 0.0;
    for (const auto& g : grads[e]) {
      for (float v : g) norm_sq += static_cast<double>(v) * v;
    }
    EXPECT_EQ(norms[e], std::sqrt(norm_sq)) << "example " << e;
  }
  EXPECT_LT(want_norms.front(), cfg.clip_norm);
  EXPECT_GT(want_norms.back(), cfg.clip_norm);
}

// ------------------------------------------------------------- Accountant

TEST(AccountantTest, ZeroStepsZeroEpsilon) {
  RdpAccountant acc(0.01, 1.0);
  EXPECT_DOUBLE_EQ(acc.Epsilon(1e-5), 0.0);
}

TEST(AccountantTest, EpsilonGrowsWithSteps) {
  RdpAccountant acc(0.05, 1.0);
  acc.AddSteps(100);
  double e100 = acc.Epsilon(1e-5);
  acc.AddSteps(900);
  double e1000 = acc.Epsilon(1e-5);
  EXPECT_GT(e1000, e100);
  EXPECT_GT(e100, 0.0);
}

TEST(AccountantTest, MoreNoiseLessEpsilon) {
  RdpAccountant low_noise(0.05, 0.8);
  RdpAccountant high_noise(0.05, 4.0);
  low_noise.AddSteps(200);
  high_noise.AddSteps(200);
  EXPECT_GT(low_noise.Epsilon(1e-5), high_noise.Epsilon(1e-5));
}

TEST(AccountantTest, SmallerSamplingRateLessEpsilon) {
  RdpAccountant big_q(0.5, 1.0);
  RdpAccountant small_q(0.01, 1.0);
  big_q.AddSteps(100);
  small_q.AddSteps(100);
  EXPECT_GT(big_q.Epsilon(1e-5), small_q.Epsilon(1e-5));
}

TEST(AccountantTest, FullBatchMatchesGaussianMechanism) {
  RdpAccountant acc(1.0, 2.0);
  // RDP of the plain Gaussian mechanism at order alpha: alpha / (2 sigma^2).
  EXPECT_NEAR(acc.SingleStepRdp(8), 8.0 / (2.0 * 4.0), 1e-12);
}

TEST(AccountantTest, SubsampledRdpBelowFullBatch) {
  RdpAccountant sub(0.1, 1.0);
  RdpAccountant full(1.0, 1.0);
  EXPECT_LT(sub.SingleStepRdp(4), full.SingleStepRdp(4));
}

TEST(AccountantTest, KnownRegimeSanity) {
  // sigma=1, q=0.01, 1000 steps is a classic "single digit epsilon" regime.
  RdpAccountant acc(0.01, 1.0);
  acc.AddSteps(1000);
  double eps = acc.Epsilon(1e-5);
  EXPECT_GT(eps, 0.1);
  EXPECT_LT(eps, 5.0);
}

TEST(AccountantTest, NoiseForTargetInverse) {
  auto sigma = RdpAccountant::NoiseForTarget(0.02, 500, 1.0, 1e-5);
  ASSERT_TRUE(sigma.ok());
  RdpAccountant acc(0.02, sigma.value());
  acc.AddSteps(500);
  EXPECT_LE(acc.Epsilon(1e-5), 1.0 + 1e-6);
  // Slightly less noise should overshoot the target.
  RdpAccountant tighter(0.02, std::max(0.3, sigma.value() - 0.05));
  tighter.AddSteps(500);
  EXPECT_GT(tighter.Epsilon(1e-5), 1.0 - 0.1);
}

TEST(AccountantTest, NoiseForTargetUnreachable) {
  // Absurdly tight target with huge sampling rate and many steps.
  auto sigma = RdpAccountant::NoiseForTarget(1.0, 1000000, 1e-6, 1e-9);
  EXPECT_FALSE(sigma.ok());
}

}  // namespace
}  // namespace serd
