// Quantized-decode tests (DESIGN.md §5m), two tiers:
//  - kernel tolerance sweep: GemmInt8/GemmBf16 over random shapes against
//    a double-precision fp32 reference, each int8 element bounded by the
//    analytic Int8ErrorBound; plus the bitwise contracts the decoders
//    rely on (M-row == M single-row calls, determinism across calls);
//  - end-to-end quality gate: the dblp-acm pipeline decoded at int8 must
//    hold matcher F1 within 0.01 and JSD within 0.05 of the fp32 run
//    (released bytes may differ, so the gate is statistical).
// The M-lane vs 1-lane bitwise decoder check at every precision lives in
// batched_decode_test.
// Codec round-trips for the "quant" artifact section live here too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bytes.h"
#include "artifact/model_codec.h"
#include "common/rng.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "eval/metrics.h"
#include "matcher/random_forest.h"
#include "nn/quant.h"
#include "seq2seq/model_bank.h"
#include "seq2seq/transformer.h"

namespace serd {
namespace {

using nn::DecodePrecision;
using nn::QuantizedMatrix;
using datagen::DatasetKind;
namespace k = nn::kernels;

std::vector<float> RandomVec(std::size_t n, double lo, double hi, Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Uniform(lo, hi));
  return v;
}

/// fp32 reference y = x · W + bias computed in double, W in the nn::Linear
/// [in, out] layout.
std::vector<double> ReferenceGemm(std::size_t m, std::size_t in,
                                  std::size_t out, const float* x,
                                  const float* w, const float* bias) {
  std::vector<double> y(m * out, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      double acc = bias != nullptr ? bias[j] : 0.0;
      for (std::size_t c = 0; c < in; ++c) {
        acc += static_cast<double>(x[i * in + c]) *
               static_cast<double>(w[c * out + j]);
      }
      y[i * out + j] = acc;
    }
  }
  return y;
}

// ------------------------------------------------------- kernel tolerance

struct GemmShape {
  std::size_t m, in, out;
};

const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 8, 8},    {3, 16, 32},  {2, 33, 17},
    {5, 64, 48},  {4, 31, 95},  {8, 32, 32},  {1, 129, 7},
};

TEST(QuantKernelTest, Int8WithinAnalyticBound) {
  // Sweep shapes x seeds; every element of the int8 result must sit
  // within the per-element analytic bound of the double reference, plus a
  // sliver for the fp32 epilogue multiply.
  for (const auto& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 77 + shape.in);
      auto x = RandomVec(shape.m * shape.in, -2.0, 2.0, &rng);
      auto w = RandomVec(shape.in * shape.out, -1.5, 1.5, &rng);
      auto bias = RandomVec(shape.out, -0.5, 0.5, &rng);

      QuantizedMatrix qw = nn::QuantizeWeightMatrix(shape.in, shape.out,
                                                    w.data(),
                                                    DecodePrecision::kInt8);
      std::vector<std::int8_t> aq(shape.m * qw.cstride);
      std::vector<float> ascales(shape.m);
      k::QuantizeActivationRows(shape.m, shape.in, qw.cstride, x.data(),
                                aq.data(), ascales.data());
      std::vector<float> y(shape.m * shape.out);
      k::GemmInt8(qw, bias.data(), shape.m, aq.data(), ascales.data(),
                  y.data());

      auto ref = ReferenceGemm(shape.m, shape.in, shape.out, x.data(),
                               w.data(), bias.data());
      for (std::size_t i = 0; i < shape.m; ++i) {
        for (std::size_t j = 0; j < shape.out; ++j) {
          double bound = k::Int8ErrorBound(
              shape.in, x.data() + i * shape.in, w.data() + j, shape.out,
              ascales[i], qw.scales[j]);
          double err = std::fabs(ref[i * shape.out + j] -
                                 static_cast<double>(y[i * shape.out + j]));
          EXPECT_LE(err, bound + 1e-4)
              << "shape " << shape.m << "x" << shape.in << "x" << shape.out
              << " seed " << seed << " elem (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(QuantKernelTest, Bf16WithinRelativeBound) {
  // bf16 stores 8 mantissa bits, so each weight is within 2^-9 relative
  // of its fp32 value; the dot product error is bounded by
  // sum |x||w| * 2^-8 (slack for fp32 accumulation order).
  for (const auto& shape : kShapes) {
    Rng rng(shape.out * 13 + 5);
    auto x = RandomVec(shape.m * shape.in, -2.0, 2.0, &rng);
    auto w = RandomVec(shape.in * shape.out, -1.5, 1.5, &rng);

    QuantizedMatrix qw = nn::QuantizeWeightMatrix(shape.in, shape.out,
                                                  w.data(),
                                                  DecodePrecision::kBf16);
    std::vector<float> y(shape.m * shape.out);
    k::GemmBf16(qw, nullptr, shape.m, x.data(), y.data());

    auto ref = ReferenceGemm(shape.m, shape.in, shape.out, x.data(),
                             w.data(), nullptr);
    for (std::size_t i = 0; i < shape.m; ++i) {
      for (std::size_t j = 0; j < shape.out; ++j) {
        double bound = 1e-6;
        for (std::size_t c = 0; c < shape.in; ++c) {
          bound += std::fabs(static_cast<double>(x[i * shape.in + c]) *
                             static_cast<double>(w[c * shape.out + j])) /
                   256.0;
        }
        double err = std::fabs(ref[i * shape.out + j] -
                               static_cast<double>(y[i * shape.out + j]));
        EXPECT_LE(err, bound) << "elem (" << i << "," << j << ")";
      }
    }
  }
}

TEST(QuantKernelTest, MultiRowCallMatchesSingleRowCallsBitwise) {
  // The contract BatchedDecoder's M-lane == 1-lane equivalence rests on:
  // per-element accumulation chains never depend on m.
  for (DecodePrecision precision :
       {DecodePrecision::kInt8, DecodePrecision::kBf16}) {
    const std::size_t m = 6, in = 48, out = 33;
    Rng rng(99);
    auto x = RandomVec(m * in, -3.0, 3.0, &rng);
    auto w = RandomVec(in * out, -1.0, 1.0, &rng);
    auto bias = RandomVec(out, -0.5, 0.5, &rng);
    QuantizedMatrix qw = nn::QuantizeWeightMatrix(in, out, w.data(),
                                                  precision);

    std::vector<float> batched(m * out);
    k::QuantizedGemm(qw, bias.data(), m, x.data(), batched.data());

    for (std::size_t i = 0; i < m; ++i) {
      std::vector<float> row(out);
      k::QuantizedGemm(qw, bias.data(), 1, x.data() + i * in, row.data());
      EXPECT_EQ(0, std::memcmp(row.data(), batched.data() + i * out,
                               out * sizeof(float)))
          << "precision " << static_cast<int>(precision) << " row " << i;
    }
  }
}

TEST(QuantKernelTest, DeterministicAcrossCalls) {
  const std::size_t m = 3, in = 40, out = 24;
  Rng rng(7);
  auto x = RandomVec(m * in, -2.0, 2.0, &rng);
  auto w = RandomVec(in * out, -2.0, 2.0, &rng);
  QuantizedMatrix qw =
      nn::QuantizeWeightMatrix(in, out, w.data(), DecodePrecision::kInt8);
  std::vector<float> y1(m * out), y2(m * out);
  k::QuantizedGemm(qw, nullptr, m, x.data(), y1.data());
  k::QuantizedGemm(qw, nullptr, m, x.data(), y2.data());
  EXPECT_EQ(0, std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(float)));
}

TEST(QuantKernelTest, FusedBiasMatchesSeparateAdd) {
  const std::size_t m = 2, in = 32, out = 16;
  Rng rng(21);
  auto x = RandomVec(m * in, -1.0, 1.0, &rng);
  auto w = RandomVec(in * out, -1.0, 1.0, &rng);
  auto bias = RandomVec(out, -1.0, 1.0, &rng);
  QuantizedMatrix qw =
      nn::QuantizeWeightMatrix(in, out, w.data(), DecodePrecision::kInt8);
  std::vector<float> fused(m * out), bare(m * out);
  k::QuantizedGemm(qw, bias.data(), m, x.data(), fused.data());
  k::QuantizedGemm(qw, nullptr, m, x.data(), bare.data());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      EXPECT_EQ(fused[i * out + j], bare[i * out + j] + bias[j]);
    }
  }
}

TEST(QuantKernelTest, ZeroAndConstantInputsAreExact) {
  // amax == 0 rows use scale 1.0 and quantize to all-zero; the result must
  // be exactly the bias.
  const std::size_t in = 24, out = 8;
  Rng rng(3);
  auto w = RandomVec(in * out, -1.0, 1.0, &rng);
  auto bias = RandomVec(out, -1.0, 1.0, &rng);
  std::vector<float> x(in, 0.0f);
  QuantizedMatrix qw =
      nn::QuantizeWeightMatrix(in, out, w.data(), DecodePrecision::kInt8);
  std::vector<float> y(out);
  k::QuantizedGemm(qw, bias.data(), 1, x.data(), y.data());
  for (std::size_t j = 0; j < out; ++j) EXPECT_EQ(y[j], bias[j]);
}

// ----------------------------------------------------- model-level wiring

TransformerConfig TinyConfig() {
  TransformerConfig c;
  c.vocab_size = 20;
  c.d_model = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.ffn_dim = 24;
  c.max_len = 24;
  return c;
}

TEST(QuantModelTest, QuantizeWeightsIsIdempotentPerPrecision) {
  Rng rng(5);
  TransformerSeq2Seq model(TinyConfig(), &rng);
  EXPECT_EQ(model.quantized_weights(), nullptr);
  model.QuantizeWeights(DecodePrecision::kInt8);
  const auto* first = model.quantized_weights();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->precision, DecodePrecision::kInt8);
  EXPECT_EQ(first->layers.size(), 2u);
  // Same precision again: no re-quantization (same object).
  model.QuantizeWeights(DecodePrecision::kInt8);
  EXPECT_EQ(model.quantized_weights(), first);
  // Switching precision rebuilds; fp32 clears.
  model.QuantizeWeights(DecodePrecision::kBf16);
  ASSERT_NE(model.quantized_weights(), nullptr);
  EXPECT_EQ(model.quantized_weights()->precision, DecodePrecision::kBf16);
  model.QuantizeWeights(DecodePrecision::kFp32);
  EXPECT_EQ(model.quantized_weights(), nullptr);
}

StringBankOptions TinyBankOptions() {
  StringBankOptions opts;
  opts.num_buckets = 3;
  opts.num_candidates = 2;
  opts.transformer.d_model = 16;
  opts.transformer.num_heads = 2;
  opts.transformer.num_layers = 1;
  opts.transformer.ffn_dim = 24;
  opts.transformer.max_len = 32;
  opts.train.epochs = 1;
  opts.train.batch_size = 8;
  opts.max_pairs_per_bucket = 12;
  opts.min_pairs_per_bucket = 2;
  return opts;
}

double EditSim(const std::string& a, const std::string& b) {
  // Cheap symmetric similarity for bank tests (prefix overlap ratio).
  std::size_t n = std::min(a.size(), b.size());
  std::size_t same = 0;
  for (std::size_t i = 0; i < n; ++i) same += a[i] == b[i];
  std::size_t len = std::max(a.size(), b.size());
  return len == 0 ? 1.0 : static_cast<double>(same) / static_cast<double>(len);
}

std::vector<std::pair<std::string, std::string>> TinyPairs() {
  std::vector<std::pair<std::string, std::string>> pairs;
  const char* words[] = {"data", "base", "entity", "match", "record",
                         "table", "index", "query"};
  for (const char* a : words) {
    for (const char* b : words) {
      pairs.emplace_back(a, b);
      pairs.emplace_back(std::string(a) + " one", std::string(b) + " two");
    }
  }
  return pairs;
}

TEST(QuantModelTest, QuantizedStepsCounterTracksPrecision) {
  StringBankOptions opts = TinyBankOptions();
  opts.decode_precision = DecodePrecision::kInt8;
  opts.train.seed = 11;
  StringSynthesisBank bank(opts, EditSim);
  Rng rng(17);
  ASSERT_TRUE(bank.TrainFromPairs(TinyPairs(), &rng).ok());

  Rng srng(5);
  bank.Synthesize("index table", 0.6, &srng);
  EXPECT_GT(bank.stats().decode_quantized_steps, 0);
  long quantized = bank.stats().decode_quantized_steps;
  EXPECT_LE(quantized, bank.stats().decode_steps);

  // Back to fp32: the counter stops moving.
  bank.set_decode_precision(DecodePrecision::kFp32);
  bank.Synthesize("index table", 0.6, &srng);
  EXPECT_EQ(bank.stats().decode_quantized_steps, quantized);
}

// --------------------------------------------------------- codec round-trip

TEST(QuantCodecTest, EncodeDecodeEncodeIsByteIdentical) {
  Rng rng(41);
  TransformerConfig config = TinyConfig();
  TransformerSeq2Seq model(config, &rng);
  for (DecodePrecision precision :
       {DecodePrecision::kInt8, DecodePrecision::kBf16}) {
    model.QuantizeWeights(precision);
    ASSERT_NE(model.quantized_weights(), nullptr);

    artifact::ByteWriter w1;
    artifact::EncodeQuantizedWeights(*model.quantized_weights(), &w1);
    artifact::ByteReader r(w1.bytes());
    auto decoded = artifact::DecodeQuantizedWeights(&r, config);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(r.Finish().ok());

    artifact::ByteWriter w2;
    artifact::EncodeQuantizedWeights(*decoded.value(), &w2);
    EXPECT_EQ(w1.bytes(), w2.bytes())
        << "precision " << static_cast<int>(precision);
  }
}

TEST(QuantCodecTest, ShapeMismatchAgainstModelConfigIsRejected) {
  Rng rng(41);
  TransformerSeq2Seq model(TinyConfig(), &rng);
  model.QuantizeWeights(DecodePrecision::kInt8);
  artifact::ByteWriter w;
  artifact::EncodeQuantizedWeights(*model.quantized_weights(), &w);

  // Same payload read back against a model with a different d_model: the
  // decoder must reject instead of building wrong-sized matrices.
  TransformerConfig other = TinyConfig();
  other.d_model = 24;
  other.num_heads = 2;
  artifact::ByteReader r(w.bytes());
  auto decoded = artifact::DecodeQuantizedWeights(&r, other);
  EXPECT_FALSE(decoded.ok());

  TransformerConfig deeper = TinyConfig();
  deeper.num_layers = 3;
  artifact::ByteReader r2(w.bytes());
  auto decoded2 = artifact::DecodeQuantizedWeights(&r2, deeper);
  EXPECT_FALSE(decoded2.ok());
  EXPECT_NE(decoded2.status().message().find("layers"), std::string::npos);
}

TEST(QuantCodecTest, DecoderSurvivesRandomBytes) {
  TransformerConfig config = TinyConfig();
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed * 2654435761ull + 7);
    std::string junk(1 + rng.UniformInt(300), '\0');
    for (char& c : junk) c = static_cast<char>(rng.UniformInt(256));
    artifact::ByteReader r(junk);
    auto decoded = artifact::DecodeQuantizedWeights(&r, config);
    (void)decoded.ok();  // must return, never crash or over-allocate
  }
}

// ------------------------------------------------------- end-to-end gate

SerdOptions GatePipelineOptions() {
  SerdOptions opts;
  opts.seed = 77;
  opts.string_bank.num_buckets = 4;
  opts.string_bank.num_candidates = 2;
  opts.string_bank.transformer.d_model = 16;
  opts.string_bank.transformer.num_heads = 2;
  opts.string_bank.transformer.num_layers = 1;
  opts.string_bank.transformer.ffn_dim = 24;
  opts.string_bank.transformer.max_len = 32;
  // More training than the other fast-pipeline fixtures: the gate needs
  // peaked logits (a near-flat next-token distribution flips tokens under
  // any logit perturbation, quantized or not, and the deltas below would
  // measure sampling noise instead of quantization error).
  opts.string_bank.train.epochs = 3;
  opts.string_bank.train.batch_size = 16;
  opts.string_bank.max_pairs_per_bucket = 24;
  opts.string_bank.random_pair_samples = 120;
  opts.gan.epochs = 4;
  opts.gan.batch_size = 16;
  opts.jsd_samples = 192;
  opts.rejection_partner_sample = 8;
  opts.max_label_pairs = 20000;
  return opts;
}

TEST(QuantPipelineTest, QualityGateInt8WithinBoundOfFp32) {
  // The acceptance gate: one trained dblp-acm pipeline, decoded at fp32
  // and again at int8 on the same warm models. Released bytes may differ
  // (perturbed logits flip occasional sampled tokens, and one flip
  // cascades through the S2 release prefix, so an int8 release is
  // effectively an independent resample). The gate is therefore
  // statistical and compares means over kSeeds consecutive job seeds:
  // matcher F1 within 0.01 and JSD within 0.05 of fp32. A single release
  // pair cannot carry these bounds — its JSD delta alone ranges from 0.003
  // to 0.16 across job seeds at this scale with no quantization error
  // involved — while the mean over 8 pairs keeps a systematic shift of the
  // bound's size visible.
  auto real = datagen::Generate(DatasetKind::kDblpAcm,
                                {.seed = 3, .scale = 0.04});
  std::vector<std::vector<std::string>> corpora;
  std::size_t idx = 0;
  for (const auto& col : real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kDblpAcm,
                                                col.name, 60, 100 + idx++));
  }
  Table background = datagen::BackgroundEntities(DatasetKind::kDblpAcm, 50,
                                                 11);

  const SerdOptions options = GatePipelineOptions();
  SerdSynthesizer synth(real, options);
  ASSERT_TRUE(synth.Fit(corpora, background).ok());

  auto spec = SimilaritySpec::FromTables(real.schema(), {&real.a, &real.b});
  FeatureExtractor fx(spec);
  // Scores one release: (JSD of its O-distribution, matcher F1 on real
  // test pairs). The real split is rebuilt from the same seed per call so
  // every release is scored on the same pairs.
  auto score = [&](nn::DecodePrecision precision, uint64_t seed) {
    synth.set_decode_precision(precision);
    synth.set_seed(seed);
    auto released = synth.Synthesize();
    SERD_CHECK(released.ok()) << released.status().ToString();
    if (precision == nn::DecodePrecision::kFp32) {
      EXPECT_EQ(synth.report().decode_quantized_steps, 0);
    } else {
      EXPECT_GT(synth.report().decode_quantized_steps, 0);
    }
    const double jsd = synth.report().jsd_real_vs_syn;
    Rng rng(7);
    auto real_pairs = BuildLabeledPairs(real, 6.0, &rng);
    LabeledPairSet real_train, real_test;
    SplitPairs(real_pairs, 0.4, &rng, &real_train, &real_test);
    auto pairs = synth.LabelPairs(*released, 6.0, &rng);
    RandomForest matcher;
    const double f1 = TrainAndEvaluate(&matcher, fx, *released, pairs, fx,
                                       real, real_test)
                          .f1;
    EXPECT_GT(f1, 0.3) << DecodePrecisionName(precision) << " seed " << seed;
    return std::make_pair(jsd, f1);
  };

  constexpr int kSeeds = 8;
  double fp32_jsd = 0.0, int8_jsd = 0.0, fp32_f1 = 0.0, int8_f1 = 0.0;
  for (int i = 0; i < kSeeds; ++i) {
    const uint64_t seed = options.seed + static_cast<uint64_t>(i);
    auto [jsd32, f132] = score(nn::DecodePrecision::kFp32, seed);
    auto [jsd8, f18] = score(nn::DecodePrecision::kInt8, seed);
    fp32_jsd += jsd32 / kSeeds;
    fp32_f1 += f132 / kSeeds;
    int8_jsd += jsd8 / kSeeds;
    int8_f1 += f18 / kSeeds;
  }
  // The JSD bound is the pipeline's resampling noise floor, not a
  // statement about kernel error; the kernel-level bound is the analytic
  // one above, and the release-scale fp32/int8 JSD pair is recorded per
  // run in BENCH_generate.json.
  EXPECT_LE(std::fabs(fp32_jsd - int8_jsd), 0.05)
      << "mean fp32 jsd " << fp32_jsd << " int8 jsd " << int8_jsd;
  EXPECT_LE(std::fabs(fp32_f1 - int8_f1), 0.01)
      << "mean fp32 f1 " << fp32_f1 << " int8 f1 " << int8_f1;
}

}  // namespace
}  // namespace serd
