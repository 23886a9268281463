// Layer probes of the traced run: fixed-input calls into one layer each,
// with inputs taken from the workload (its real dataset, fitted models and
// one release) and random inputs derived from the workload seed.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "block/candidates.h"
#include "block/qgram_index.h"
#include "common/rng.h"
#include "nn/kernels.h"
#include "nn/quant.h"
#include "seq2seq/model_bank.h"
#include "serve/server.h"
#include "text/qgram.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Repeats `body` (one batch of `per_batch` calls) for `batches` batches
/// and returns the median seconds per call.
template <typename Fn>
double MedianPerCall(int batches, int per_batch, Fn&& body) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double t0 = Now();
    body();
    per_call.push_back((Now() - t0) / per_batch);
  }
  return Median(per_call);
}

void ProbeStringBank(const ProbeInputs& p, RunResult* result,
                     Tracer* tracer) {
  const serd::ERDataset& real = p.inputs->real;
  const serd::SimilaritySpec& spec = p.synth->spec();
  size_t col = 0;
  while (real.schema().column(col).type != serd::ColumnType::kText) ++col;
  serd::StringBankOptions options =
      serd::serve::DefaultJobOptions().string_bank;
  options.train.seed = p.seed * 7919ULL + 1;
  serd::StringSynthesisBank bank(
      options, [&spec, col](const std::string& a, const std::string& b) {
        return spec.ColumnSimilarity(col, a, b);
      });
  serd::Rng rng(p.seed * 104729ULL + 3);
  double train_s = 0.0;
  {
    ScopedSpan span(tracer, "probe.seq2seq_train");
    const double t0 = Now();
    serd::Status trained = bank.Train(p.inputs->corpora.front(), &rng);
    train_s = Now() - t0;
    result->Expect("probe.bank_trained", trained.ok() && bank.trained(),
                   trained.ToString());
  }
  result->Set("seq2seq.probe_train_s", train_s, "s");

  std::vector<std::string> sources;
  for (size_t i = 0; i < real.a.size() && sources.size() < 16; ++i) {
    if (!real.a.row(i).value(col).empty()) {
      sources.push_back(real.a.row(i).value(col));
    }
  }
  constexpr int kCalls = 16;
  ScopedSpan span(tracer, "probe.seq2seq_synthesize");
  serd::Rng synth_rng(p.seed + 11);
  const double per_call = MedianPerCall(5, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      const double target = 0.3 + 0.6 * (i % 4) / 3.0;
      bank.Synthesize(sources[i % sources.size()], target, &synth_rng);
    }
  });
  result->Set("seq2seq.probe_synth_ms", per_call * 1e3, "ms");
}

void ProbeGmm(const ProbeInputs& p, RunResult* result, Tracer* tracer) {
  ScopedSpan span(tracer, "probe.gmm");
  const serd::ERDataset& real = p.inputs->real;
  serd::Rng rng(p.seed * 31 + 5);
  serd::LabeledPairSet pairs = serd::BuildLabeledPairs(real, 4.0, &rng);
  std::vector<serd::Vec> xs;
  for (const auto& lp : pairs.pairs) {
    xs.push_back(p.synth->spec().SimilarityVector(real.a.row(lp.a_idx),
                                                  real.b.row(lp.b_idx)));
    if (xs.size() == 512) break;
  }
  const serd::ODistribution& o = p.synth->o_real();
  double sink = 0.0;
  const int n = static_cast<int>(xs.size());
  const double logpdf = MedianPerCall(7, n, [&] {
    for (const auto& x : xs) sink += o.LogPdf(x);
  });
  const double posterior = MedianPerCall(7, n, [&] {
    for (const auto& x : xs) sink += o.PosteriorMatch(x);
  });
  result->Set("gmm.logpdf_ns", logpdf * 1e9, "ns");
  result->Set("gmm.posterior_ns", posterior * 1e9, "ns");
  result->Note("gmm.probe_vectors", static_cast<double>(n));
  result->Note("gmm.probe_sink", sink);
}

void ProbeBlocking(const ProbeInputs& p, RunResult* result, Tracer* tracer) {
  ScopedSpan span(tracer, "probe.block");
  const serd::ERDataset& syn = *p.release;
  std::vector<size_t> cols;
  for (size_t c = 0; c < syn.schema().num_columns(); ++c) {
    if (syn.schema().column(c).type == serd::ColumnType::kText) {
      cols.push_back(c);
    }
  }
  auto grams_of = [&](const serd::Table& t) {
    std::vector<std::vector<std::vector<uint32_t>>> g(t.size());
    for (size_t r = 0; r < t.size(); ++r) {
      for (size_t c : cols) {
        g[r].push_back(serd::HashedQgramSet(t.row(r).value(c), 3));
      }
    }
    return g;
  };
  const auto a_grams = grams_of(syn.a);
  const auto b_grams = grams_of(syn.b);
  serd::block::BlockOptions options;
  std::vector<double> build, probe;
  size_t candidates = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = Now();
    auto index = serd::block::QgramIndex::Build(
        syn.b.size(), cols.size(),
        [&](size_t row, size_t col) -> const std::vector<uint32_t>& {
          return b_grams[row][col];
        },
        options);
    const double t1 = Now();
    auto cand = serd::block::GenerateCandidates(
        index, syn.a.size(),
        [&](size_t row, size_t col) -> const std::vector<uint32_t>& {
          return a_grams[row][col];
        });
    build.push_back(t1 - t0);
    probe.push_back(Now() - t1);
    candidates = cand.num_pairs();
  }
  result->Set("block.probe_build_s", Median(build), "s");
  result->Set("block.probe_candidates_s", Median(probe), "s");
  result->Note("block.probe_candidates", static_cast<double>(candidates));
  result->Note("block.probe_pairs",
               static_cast<double>(syn.a.size() * syn.b.size()));
}

void ProbeGan(const ProbeInputs& p, RunResult* result, Tracer* tracer) {
  ScopedSpan span(tracer, "probe.gan");
  const serd::ERDataset& real = p.inputs->real;
  std::vector<std::vector<float>> features;
  for (size_t i = 0; i < real.a.size() && features.size() < 128; ++i) {
    features.push_back(p.synth->encoder()->Encode(real.a.row(i)));
  }
  double sink = 0.0;
  const double per_call =
      MedianPerCall(7, static_cast<int>(features.size()), [&] {
        for (const auto& f : features) {
          sink += p.synth->gan()->DiscriminatorScore(f);
        }
      });
  result->Set("gan.disc_score_us", per_call * 1e6, "us");
  result->Note("gan.probe_sink", sink);
}

void ProbeKernels(const ProbeInputs& p, RunResult* result, Tracer* tracer) {
  ScopedSpan span(tracer, "probe.nn");
  // One decode step of the default job model: num_candidates lanes
  // through the d_model -> ffn_dim projection.
  const serd::SerdOptions defaults = serd::serve::DefaultJobOptions();
  const size_t m = static_cast<size_t>(defaults.string_bank.num_candidates);
  const size_t k =
      static_cast<size_t>(defaults.string_bank.transformer.d_model);
  const size_t n =
      static_cast<size_t>(defaults.string_bank.transformer.ffn_dim);
  serd::Rng rng(p.seed * 977 + 13);
  std::vector<float> a(m * k), w(k * n), c(m * n), bias(n);
  for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : bias) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  constexpr int kCalls = 20000;
  const double ops = 2.0 * static_cast<double>(m * n * k);
  const double sgemm = MedianPerCall(5, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      serd::nn::kernels::GemmNN(m, n, k, a.data(), w.data(), c.data(),
                                false);
    }
  });
  const serd::nn::QuantizedMatrix q = serd::nn::QuantizeWeightMatrix(
      k, n, w.data(), serd::nn::DecodePrecision::kInt8);
  std::vector<int8_t> aq(m * q.cstride);
  std::vector<float> ascales(m);
  const double int8 = MedianPerCall(5, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      serd::nn::kernels::QuantizeActivationRows(m, k, q.cstride, a.data(),
                                                aq.data(), ascales.data());
      serd::nn::kernels::GemmInt8(q, bias.data(), m, aq.data(),
                                  ascales.data(), c.data());
    }
  });
  result->Set("nn.sgemm_gflops", ops / sgemm * 1e-9, "GFLOP/s");
  result->Set("nn.gemm_int8_gops", ops / int8 * 1e-9, "GOP/s");
  result->Note("nn.probe_shape", std::to_string(m) + "x" + std::to_string(k) +
                                     "x" + std::to_string(n));
}

}  // namespace

void RunProbes(const ProbeInputs& probe, RunResult* result, Tracer* tracer) {
  ScopedSpan span(tracer, "probes");
  ProbeStringBank(probe, result, tracer);
  ProbeGmm(probe, result, tracer);
  ProbeBlocking(probe, result, tracer);
  ProbeGan(probe, result, tracer);
  ProbeKernels(probe, result, tracer);
}

}  // namespace perfbench
