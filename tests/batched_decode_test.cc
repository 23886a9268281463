#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "eval/metrics.h"
#include "matcher/random_forest.h"
#include "nn/quant.h"
#include "runtime/sharded_rng.h"
#include "seq2seq/model_bank.h"
#include "seq2seq/transformer.h"

namespace serd {
namespace {

using datagen::DatasetKind;
using nn::DecodePrecision;

TransformerConfig TinyConfig(int vocab_size) {
  TransformerConfig cfg;
  cfg.vocab_size = vocab_size;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;  // two layers so cross-layer cache indexing is covered
  cfg.ffn_dim = 32;
  cfg.max_len = 24;
  cfg.dropout = 0.0f;
  return cfg;
}

/// Collects every candidate GenerateBatchLanes delivers, in order.
std::vector<std::vector<int>> CollectLanes(const TransformerSeq2Seq& model,
                                           const EncoderMemoryPtr& memory,
                                           int num_candidates,
                                           uint64_t stream_seed,
                                           GenerateStats* stats = nullptr) {
  std::vector<std::vector<int>> out;
  int produced = model.GenerateBatchLanes(
      memory, num_candidates, stream_seed, 0.9f,
      [&](int c, const std::vector<int>& ids) {
        EXPECT_EQ(c, static_cast<int>(out.size())) << "out-of-order delivery";
        out.push_back(ids);
        return true;
      },
      stats);
  EXPECT_EQ(produced, static_cast<int>(out.size()));
  return out;
}

/// The --reference-decode oracle for candidate c: a full re-decode of
/// `src_ids` on the stream the lockstep decoder gives lane c.
std::vector<int> ReferenceCandidate(const TransformerSeq2Seq& model,
                                    const std::vector<int>& src_ids,
                                    uint64_t stream_seed, int c,
                                    GenerateStats* stats = nullptr) {
  Rng lane_rng(runtime::ShardedRng::DeriveSeed(stream_seed,
                                               static_cast<uint64_t>(c)));
  return model.Generate(src_ids, &lane_rng, 0.9f, stats);
}

// ------------------------------------------- M-lane step vs 1-lane steps

TEST(BatchedDecodeTest, MLaneStepRowsMatchOneLaneStepBitwise) {
  // The contract lockstep decode rests on: row i of an M-lane Step equals,
  // bit for bit, a 1-lane decoder fed lane i's tokens alone — at every
  // precision, since the quantized kernels are m-independent too. Lanes
  // retire at different steps, so the live subset shrinks mid-sweep.
  CharVocab vocab;
  vocab.Fit({"lockstep lanes stay exact"});
  const std::vector<int> src_ids = vocab.Encode("lanes stay exact");
  for (DecodePrecision precision :
       {DecodePrecision::kFp32, DecodePrecision::kBf16,
        DecodePrecision::kInt8}) {
    Rng init(70);
    TransformerSeq2Seq model(TinyConfig(vocab.size()), &init);
    model.QuantizeWeights(precision);
    EncoderMemoryPtr memory = model.EncodeMemory(src_ids);
    const int vocab_size = model.config().vocab_size;
    const std::size_t row = static_cast<std::size_t>(vocab_size);
    for (int m = 1; m <= 8; ++m) {
      Rng tok_rng(1000 + m);
      BatchedDecoder lanes(&model, memory, m);
      std::vector<std::unique_ptr<BatchedDecoder>> solo;
      std::vector<int> retire_after(m);
      for (int i = 0; i < m; ++i) {
        solo.push_back(std::make_unique<BatchedDecoder>(&model, memory, 1));
        retire_after[i] =
            1 + static_cast<int>(tok_rng.UniformInt(model.config().max_len));
      }
      std::vector<int> live(m);
      for (int i = 0; i < m; ++i) live[i] = i;
      for (int step = 0; !live.empty(); ++step) {
        std::vector<int> tokens;
        for (std::size_t i = 0; i < live.size(); ++i) {
          tokens.push_back(static_cast<int>(tok_rng.UniformInt(vocab_size)));
        }
        const float* batched = lanes.Step(live, tokens);
        std::vector<int> still;
        for (std::size_t i = 0; i < live.size(); ++i) {
          const float* alone = solo[live[i]]->Step({0}, {tokens[i]});
          ASSERT_EQ(0, std::memcmp(batched + i * row, alone,
                                   row * sizeof(float)))
              << "precision " << DecodePrecisionName(precision)
              << " lanes " << m << " lane " << live[i] << " step " << step;
          if (step + 1 < retire_after[live[i]]) still.push_back(live[i]);
        }
        live.swap(still);
      }
    }
  }
}

// ------------------------------------- lockstep lanes vs reference decode

TEST(BatchedDecodeTest, LockstepMatchesOracleAtEveryCandidateCount) {
  CharVocab vocab;
  vocab.Fit({"synthesize privacy preserving records"});
  Rng rng(71);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  const std::vector<int> src_ids = vocab.Encode("records vary");
  EncoderMemoryPtr memory = model.EncodeMemory(src_ids);

  // Every candidate count from 1 through 8: lanes finish at different
  // steps, so this sweeps lane retirement with 0..7 retired lanes in
  // flight, including the all-but-one-retired and single-lane cases.
  for (int n = 1; n <= 8; ++n) {
    GenerateStats batched_stats, oracle_stats;
    auto batched = CollectLanes(model, memory, n, 900 + n, &batched_stats);
    ASSERT_EQ(batched.size(), static_cast<size_t>(n)) << "candidates " << n;
    for (int c = 0; c < n; ++c) {
      // Bit-exact per lane, not merely same length: the batched kernels
      // must reproduce the full re-decode's logits exactly.
      EXPECT_EQ(batched[c],
                ReferenceCandidate(model, src_ids, 900 + n, c, &oracle_stats))
          << "candidates " << n << " lane " << c;
    }
    // One step per sampled token on both paths; identical tokens means
    // identical step counts, and every lockstep step is KV-cached.
    EXPECT_GT(batched_stats.steps, 0);
    EXPECT_EQ(batched_stats.steps, oracle_stats.steps);
    EXPECT_EQ(batched_stats.steps, batched_stats.cached_steps);
    EXPECT_EQ(oracle_stats.cached_steps, 0);
  }
}

TEST(BatchedDecodeTest, PerCandidateStreamsAreIndependent) {
  // Candidate c's tokens depend only on (stream_seed, c), never on how
  // many sibling lanes decode alongside it.
  CharVocab vocab;
  vocab.Fit({"independent streams"});
  Rng rng(72);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  EncoderMemoryPtr memory = model.EncodeMemory(vocab.Encode("streams"));

  auto solo = CollectLanes(model, memory, 1, 4242);
  auto eight = CollectLanes(model, memory, 8, 4242);
  ASSERT_EQ(eight.size(), 8u);
  EXPECT_EQ(solo[0], eight[0]);

  auto five = CollectLanes(model, memory, 5, 4242);
  for (int c = 0; c < 5; ++c) EXPECT_EQ(five[c], eight[c]) << "lane " << c;
}

TEST(BatchedDecodeTest, EarlyStopDeliversIdenticallyInBothModes) {
  // Lockstep lanes stopped after the second candidate vs the reference
  // decoding only those two candidates: same tokens, same step count —
  // rows the lockstep decoder computed for abandoned lanes are not
  // counted.
  CharVocab vocab;
  vocab.Fit({"early exit lanes"});
  Rng rng(73);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  const std::vector<int> src_ids = vocab.Encode("exit");
  EncoderMemoryPtr memory = model.EncodeMemory(src_ids);

  std::vector<std::vector<int>> seen;
  GenerateStats stats;
  int produced = model.GenerateBatchLanes(
      memory, 8, 777, 0.9f,
      [&](int, const std::vector<int>& ids) {
        seen.push_back(ids);
        return seen.size() < 2;  // stop after the second candidate
      },
      &stats);
  EXPECT_EQ(produced, 2);
  ASSERT_EQ(seen.size(), 2u);
  // Abandoned lanes drew only from their own streams, so the delivered
  // candidates match the full-batch run and the reference bitwise.
  auto full = CollectLanes(model, memory, 8, 777);
  GenerateStats ref_stats;
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(seen[c], full[c]) << "lane " << c;
    EXPECT_EQ(seen[c], ReferenceCandidate(model, src_ids, 777, c, &ref_stats))
        << "lane " << c;
  }
  EXPECT_EQ(stats.steps, ref_stats.steps);
}

TEST(BatchedDecodeTest, DistinctStreamSeedsDecorrelate) {
  CharVocab vocab;
  vocab.Fit({"seed separation check"});
  Rng rng(74);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  EncoderMemoryPtr memory = model.EncodeMemory(vocab.Encode("separation"));
  auto a = CollectLanes(model, memory, 4, 1);
  auto b = CollectLanes(model, memory, 4, 2);
  EXPECT_NE(a, b);
}

// --------------------------------------------------- end-to-end pipeline

SerdOptions FastPipelineOptions() {
  SerdOptions opts;
  opts.seed = 77;
  opts.string_bank.num_buckets = 4;
  opts.string_bank.num_candidates = 2;
  opts.string_bank.transformer.d_model = 16;
  opts.string_bank.transformer.num_heads = 2;
  opts.string_bank.transformer.num_layers = 1;
  opts.string_bank.transformer.ffn_dim = 24;
  opts.string_bank.transformer.max_len = 32;
  opts.string_bank.train.epochs = 1;
  opts.string_bank.train.batch_size = 16;
  opts.string_bank.max_pairs_per_bucket = 16;
  opts.string_bank.random_pair_samples = 120;
  opts.gan.epochs = 4;
  opts.gan.batch_size = 16;
  opts.jsd_samples = 48;
  opts.rejection_partner_sample = 8;
  opts.max_label_pairs = 20000;
  return opts;
}

struct Fixture {
  ERDataset real;
  std::vector<std::vector<std::string>> corpora;
  Table background;
};

Fixture MakeFixture(double scale = 0.02) {
  Fixture f;
  f.real = datagen::Generate(DatasetKind::kDblpAcm, {.seed = 3, .scale = scale});
  size_t idx = 0;
  for (const auto& col : f.real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    f.corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kDblpAcm,
                                                  col.name, 60, 100 + idx++));
  }
  f.background = datagen::BackgroundEntities(DatasetKind::kDblpAcm, 50, 11);
  return f;
}

void ExpectSameDataset(const ERDataset& x, const ERDataset& y,
                       const char* what) {
  ASSERT_EQ(x.a.size(), y.a.size()) << what;
  ASSERT_EQ(x.b.size(), y.b.size()) << what;
  for (size_t i = 0; i < x.a.size(); ++i) {
    ASSERT_EQ(x.a.row(i).values, y.a.row(i).values) << what << " a row " << i;
  }
  for (size_t i = 0; i < x.b.size(); ++i) {
    ASSERT_EQ(x.b.row(i).values, y.b.row(i).values) << what << " b row " << i;
  }
  ASSERT_EQ(x.matches.size(), y.matches.size()) << what;
}

TEST(BatchedPipelineTest, ReleaseIsThreadCountAndLockstepInvariant) {
  // The acceptance matrix: the default lockstep decode and the fp32
  // reference (incremental_decode = false) at threads {1, 8} must release
  // byte-identical datasets. Both decode candidate c on the same stream,
  // and per-entity sharded streams never couple threads, so all four runs
  // agree.
  auto f = MakeFixture();
  auto run = [&](int threads, bool incremental_decode) {
    SerdOptions opts = FastPipelineOptions();
    opts.target_a = 12;
    opts.target_b = 12;
    opts.threads = threads;
    opts.string_bank.incremental_decode = incremental_decode;
    SerdSynthesizer synth(f.real, opts);
    SERD_CHECK(synth.Fit(f.corpora, f.background).ok());
    ERDataset out = std::move(synth.Synthesize()).value();
    EXPECT_GT(synth.report().decode_steps, 0);
    return std::make_pair(std::move(out), synth.report().decode_steps);
  };
  auto base = run(1, true);
  for (auto [threads, incremental] :
       {std::pair{8, true}, std::pair{1, false}, std::pair{8, false}}) {
    auto other = run(threads, incremental);
    const std::string what = "threads " + std::to_string(threads) +
                             (incremental ? " lockstep" : " reference");
    ExpectSameDataset(base.first, other.first, what.c_str());
    EXPECT_EQ(base.second, other.second) << what;
  }
}

TEST(BatchedPipelineTest, QualityGateF1AboveFloor) {
  // The default release must stay useful for matcher training: a matcher
  // trained on it, scored on real test pairs, clears an absolute F1
  // floor.
  auto f = MakeFixture(0.04);
  SerdSynthesizer synth(f.real, FastPipelineOptions());
  ASSERT_TRUE(synth.Fit(f.corpora, f.background).ok());
  auto released = synth.Synthesize();
  ASSERT_TRUE(released.ok());

  auto spec = SimilaritySpec::FromTables(f.real.schema(),
                                         {&f.real.a, &f.real.b});
  FeatureExtractor fx(spec);
  Rng rng(7);
  auto real_pairs = BuildLabeledPairs(f.real, 6.0, &rng);
  LabeledPairSet real_train, real_test;
  SplitPairs(real_pairs, 0.4, &rng, &real_train, &real_test);

  auto syn_pairs = synth.LabelPairs(*released, 6.0, &rng);
  RandomForest model;
  auto prf = TrainAndEvaluate(&model, fx, *released, syn_pairs, fx, f.real,
                              real_test);
  EXPECT_GT(prf.f1, 0.3);
}

}  // namespace
}  // namespace serd
