#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/arena.h"
#include "runtime/sharded_rng.h"
#include "runtime/thread_pool.h"
#include "seq2seq/model_bank.h"
#include "seq2seq/trainer.h"
#include "seq2seq/transformer.h"
#include "text/qgram.h"
#include "text/token.h"

namespace serd {
namespace {

TransformerConfig TinyConfig(int vocab_size) {
  TransformerConfig cfg;
  cfg.vocab_size = vocab_size;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 32;
  cfg.max_len = 24;
  cfg.dropout = 0.0f;
  return cfg;
}

// ------------------------------------------------------------ transformer

TEST(TransformerTest, LossIsFiniteAndPositive) {
  CharVocab vocab;
  vocab.Fit({"abcde"});
  Rng rng(1);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  nn::Tape tape;
  auto loss = model.Loss(&tape, vocab.Encode("abc"), vocab.Encode("cba"),
                         nullptr);
  EXPECT_TRUE(std::isfinite(loss->value()[0]));
  EXPECT_GT(loss->value()[0], 0.0f);
}

TEST(TransformerTest, TrainingReducesLossOnCopyTask) {
  CharVocab vocab;
  vocab.Fit({"abcd"});
  Rng rng(2);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);

  std::vector<std::pair<std::string, std::string>> pairs = {
      {"ab", "ab"}, {"ba", "ba"}, {"abc", "abc"}, {"cab", "cab"},
      {"d", "d"},   {"dc", "dc"}, {"abcd", "abcd"}};

  auto mean_loss = [&]() {
    double total = 0;
    for (const auto& [s, t] : pairs) {
      nn::Tape tape;
      total += model.Loss(&tape, vocab.Encode(s), vocab.Encode(t), nullptr)
                   ->value()[0];
    }
    return total / pairs.size();
  };

  double before = mean_loss();
  Seq2SeqTrainOptions opts;
  opts.epochs = 30;
  opts.batch_size = 7;
  opts.dp.enabled = false;
  opts.learning_rate = 5e-3f;
  TrainSeq2Seq(&model, vocab, pairs, opts);
  double after = mean_loss();
  EXPECT_LT(after, before * 0.7);
}

TEST(TransformerTest, GenerateTerminatesAndUsesVocab) {
  CharVocab vocab;
  vocab.Fit({"xyz"});
  Rng rng(3);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  Rng gen_rng(4);
  auto ids = model.Generate(vocab.Encode("xy"), &gen_rng);
  EXPECT_LT(ids.size(), 24u);
  for (int id : ids) {
    EXPECT_GE(id, CharVocab::kNumSpecials);
    EXPECT_LT(id, vocab.size());
  }
}

TEST(TransformerTest, GenerateIsDeterministicGivenSeed) {
  CharVocab vocab;
  vocab.Fit({"abc"});
  Rng rng(5);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  Rng g1(7), g2(7);
  EXPECT_EQ(model.Generate(vocab.Encode("ab"), &g1),
            model.Generate(vocab.Encode("ab"), &g2));
}

TEST(TransformerTest, LongInputsClampedToMaxLen) {
  CharVocab vocab;
  vocab.Fit({"a"});
  Rng rng(8);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  std::string longer(100, 'a');
  nn::Tape tape;
  auto loss = model.Loss(&tape, vocab.Encode(longer), vocab.Encode(longer),
                         nullptr);
  EXPECT_TRUE(std::isfinite(loss->value()[0]));
}

// ------------------------------------------------- KV-cached decode path

TEST(KvCacheTest, StepLogitsMatchFullDecodeBitExact) {
  CharVocab vocab;
  vocab.Fit({"abcdefgh"});
  Rng rng(21);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  auto src_ids = vocab.Encode("fedcba");
  EncoderMemoryPtr memory = model.EncodeMemory(src_ids);

  BatchedDecoder dec(&model, memory, /*num_lanes=*/1);
  std::vector<int> prefix = {CharVocab::kBos};
  Rng tok_rng(22);
  for (int step = 0; step < 12; ++step) {
    const float* inc = dec.Step({0}, {prefix.back()});
    auto full = model.NextLogitsFull(prefix, memory);
    ASSERT_EQ(full.size(), static_cast<size_t>(vocab.size()));
    for (size_t c = 0; c < full.size(); ++c) {
      // Bit-exact, not just close: the incremental path routes through the
      // same kernels with the same per-element accumulation chains.
      ASSERT_EQ(inc[c], full[c]) << "step " << step << " logit " << c;
    }
    prefix.push_back(static_cast<int>(
        CharVocab::kNumSpecials + tok_rng.UniformInt(vocab.size() -
                                                     CharVocab::kNumSpecials)));
  }
}

TEST(KvCacheTest, LanesMatchPerCandidateGenerate) {
  CharVocab vocab;
  vocab.Fit({"synthesize records"});
  Rng rng(23);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  auto src_ids = vocab.Encode("records ok");

  constexpr int kCandidates = 4;
  constexpr uint64_t kStreamSeed = 24;
  std::vector<std::vector<int>> batch;
  GenerateStats stats;
  int produced = model.GenerateBatchLanes(
      model.EncodeMemory(src_ids), kCandidates, kStreamSeed, 0.9f,
      [&](int, const std::vector<int>& ids) {
        batch.push_back(ids);
        return true;
      },
      &stats);
  ASSERT_EQ(produced, kCandidates);
  ASSERT_EQ(batch.size(), static_cast<size_t>(kCandidates));
  // Candidate c on its own stream: the lockstep decode must sample
  // identical tokens to the full re-decode reference on that stream, and
  // count the same steps.
  GenerateStats ref_stats;
  for (int c = 0; c < kCandidates; ++c) {
    Rng lane_rng(runtime::ShardedRng::DeriveSeed(kStreamSeed, c));
    EXPECT_EQ(batch[c], model.Generate(src_ids, &lane_rng, 0.9f, &ref_stats))
        << "candidate " << c;
  }
  EXPECT_GT(stats.steps, 0);
  EXPECT_EQ(stats.steps, stats.cached_steps);
  EXPECT_EQ(stats.steps, ref_stats.steps);
  EXPECT_EQ(ref_stats.cached_steps, 0);
}

TEST(KvCacheTest, CandidateCallbackStopsTheBatchEarly) {
  CharVocab vocab;
  vocab.Fit({"early stop"});
  Rng rng(27);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  auto src_ids = vocab.Encode("stop");
  int seen = 0;
  int produced = model.GenerateBatchLanes(
      model.EncodeMemory(src_ids), 10, /*stream_seed=*/28, 0.9f,
      [&](int, const std::vector<int>&) {
        ++seen;
        return false;  // stop after the first candidate
      });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(produced, 1);
}

TEST(KvCacheTest, EncodeMemoryCapturesCrossKvPerLayer) {
  CharVocab vocab;
  vocab.Fit({"memo"});
  Rng rng(29);
  TransformerConfig cfg = TinyConfig(vocab.size());
  cfg.num_layers = 2;
  TransformerSeq2Seq model(cfg, &rng);
  auto src_ids = vocab.Encode("memo");
  EncoderMemoryPtr memory = model.EncodeMemory(src_ids);
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->model_uid, model.uid());
  EXPECT_EQ(memory->d_model, cfg.d_model);
  EXPECT_EQ(memory->mem_len, static_cast<int>(src_ids.size()));
  EXPECT_EQ(memory->src_len, static_cast<int>(src_ids.size()));
  ASSERT_EQ(memory->cross.size(), 2u);
  for (const auto& kv : memory->cross) {
    EXPECT_EQ(kv.k.size(),
              static_cast<size_t>(memory->mem_len) * cfg.d_model);
    EXPECT_EQ(kv.v.size(),
              static_cast<size_t>(memory->mem_len) * cfg.d_model);
  }
  EXPECT_EQ(memory->values.size(),
            static_cast<size_t>(memory->mem_len) * cfg.d_model);
}

TEST(KvCacheTest, ModelUidsAreUnique) {
  CharVocab vocab;
  vocab.Fit({"uid"});
  Rng rng(30);
  TransformerSeq2Seq a(TinyConfig(vocab.size()), &rng);
  TransformerSeq2Seq b(TinyConfig(vocab.size()), &rng);
  EXPECT_NE(a.uid(), b.uid());
}

// ---------------------------------------------------------------- trainer

TEST(TrainerTest, ReportsStepsAndEpsilon) {
  CharVocab vocab;
  vocab.Fit({"ab"});
  Rng rng(9);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"a", "b"}, {"b", "a"}, {"ab", "ba"}, {"ba", "ab"}};
  Seq2SeqTrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 2;
  opts.dp.enabled = true;
  opts.dp.noise_multiplier = 1.0;
  auto report = TrainSeq2Seq(&model, vocab, pairs, opts);
  EXPECT_EQ(report.steps, 4);  // 2 epochs x 2 batches
  EXPECT_GT(report.epsilon, 0.0);
  EXPECT_TRUE(std::isfinite(report.epsilon));
}

TEST(TrainerTest, DpOffMeansInfiniteEpsilon) {
  CharVocab vocab;
  vocab.Fit({"ab"});
  Rng rng(10);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  Seq2SeqTrainOptions opts;
  opts.epochs = 1;
  opts.dp.enabled = false;
  auto report = TrainSeq2Seq(&model, vocab, {{"a", "b"}}, opts);
  EXPECT_TRUE(std::isinf(report.epsilon));
}

/// A bank-sized model (full 6x16 GEMM tiles) with dropout on, and pairs
/// of assorted lengths, for the trainer's bit-exactness tests.
TransformerConfig DropoutConfig(int vocab_size) {
  TransformerConfig cfg = TinyConfig(vocab_size);
  cfg.d_model = 32;
  cfg.ffn_dim = 64;
  cfg.dropout = 0.1f;
  return cfg;
}

std::vector<std::pair<std::string, std::string>> AssortedPairs() {
  std::vector<std::pair<std::string, std::string>> pairs;
  const std::string base = "the quick brown fox jumps over a lazy dog";
  for (size_t i = 0; i < 20; ++i) {
    const std::string src = base.substr(i % 7, 5 + (i * 3) % 17);
    std::string tgt = src;
    tgt[i % tgt.size()] = 'z';
    pairs.emplace_back(src, tgt);
  }
  return pairs;
}

std::vector<std::vector<float>> Grads(const TransformerSeq2Seq& model) {
  std::vector<std::vector<float>> out;
  for (const auto& p : model.parameters()) out.push_back(p->grad());
  return out;
}

TEST(TrainerTest, DirtyArenaLossAndGradsMatchFreshArena) {
  // The arena hands out recycled value buffers unzeroed. A Loss+Backward
  // on an arena last used by a differently shaped graph (longer source
  // and target) must match a fresh arena and the heap bit for bit.
  CharVocab vocab;
  vocab.Fit({"the quick brown fox jumps over a lazy dog z"});
  Rng init(4);
  TransformerSeq2Seq model(DropoutConfig(vocab.size()), &init);
  const auto src = vocab.Encode("brown fox");
  const auto tgt = vocab.Encode("brown fix");
  auto run = [&](nn::TensorArena* arena, const std::vector<int>& s,
                 const std::vector<int>& t) {
    model.ZeroGrad();
    nn::Tape tape;
    if (arena != nullptr) {
      arena->Reset();
      tape.set_arena(arena);
    }
    Rng dropout(17);
    auto loss = model.Loss(&tape, s, t, &dropout);
    tape.Backward(loss);
    return std::make_pair(loss->value()[0], Grads(model));
  };
  const auto heap = run(nullptr, src, tgt);
  nn::TensorArena fresh;
  const auto fresh_run = run(&fresh, src, tgt);
  EXPECT_EQ(fresh_run.first, heap.first);
  EXPECT_EQ(fresh_run.second, heap.second);

  nn::TensorArena dirty;
  run(&dirty, vocab.Encode("the quick brown fox jumps"),
      vocab.Encode("a lazy dog jumps over the fox"));
  const auto dirty_run = run(&dirty, src, tgt);
  EXPECT_EQ(dirty_run.first, heap.first);
  EXPECT_EQ(dirty_run.second, heap.second);
}

TEST(TrainerTest, WeightsIdenticalWithAndWithoutPool) {
  // Each example's dropout stream comes from its global index and clipped
  // gradients merge in example order, so the trained weights do not
  // depend on how many replicas ran the examples.
  CharVocab vocab;
  vocab.Fit({"the quick brown fox jumps over a lazy dog z"});
  const auto pairs = AssortedPairs();
  auto train = [&](runtime::ThreadPool* pool) {
    Rng init(3);
    TransformerSeq2Seq model(DropoutConfig(vocab.size()), &init);
    Seq2SeqTrainOptions opts;
    opts.epochs = 2;
    opts.batch_size = 8;
    opts.seed = 21;
    opts.dp.noise_multiplier = 1.0;
    opts.pool = pool;
    const auto report = TrainSeq2Seq(&model, vocab, pairs, opts);
    std::vector<std::vector<float>> weights;
    for (const auto& p : model.parameters()) weights.push_back(p->value());
    return std::make_pair(report.epoch_losses, weights);
  };
  const auto serial = train(nullptr);
  runtime::ThreadPool pool(3);
  const auto pooled = train(&pool);
  EXPECT_EQ(serial.first, pooled.first);
  EXPECT_EQ(serial.second, pooled.second);
}

// --------------------------------------------------------------- the bank

StringBankOptions FastBankOptions() {
  StringBankOptions opts;
  opts.num_buckets = 4;
  opts.num_candidates = 3;
  opts.transformer.d_model = 16;
  opts.transformer.num_heads = 2;
  opts.transformer.num_layers = 1;
  opts.transformer.ffn_dim = 24;
  opts.transformer.max_len = 32;
  opts.train.epochs = 1;
  opts.train.batch_size = 8;
  opts.train.dp.enabled = true;
  opts.train.dp.noise_multiplier = 0.6;
  opts.max_pairs_per_bucket = 24;
  opts.min_pairs_per_bucket = 4;
  opts.random_pair_samples = 150;
  return opts;
}

double Sim(const std::string& a, const std::string& b) {
  return QgramJaccard(a, b);
}

TEST(StringBankTest, BucketMapping) {
  StringBankOptions opts = FastBankOptions();
  StringSynthesisBank bank(opts, Sim);
  EXPECT_EQ(bank.BucketOf(0.0), 0);
  EXPECT_EQ(bank.BucketOf(0.24), 0);
  EXPECT_EQ(bank.BucketOf(0.25), 1);
  EXPECT_EQ(bank.BucketOf(0.99), 3);
  EXPECT_EQ(bank.BucketOf(1.0), 3);
  EXPECT_EQ(bank.BucketOf(-0.5), 0);
  EXPECT_EQ(bank.BucketOf(1.5), 3);
}

TEST(StringBankTest, TrainRejectsTinyCorpus) {
  StringSynthesisBank bank(FastBankOptions(), Sim);
  Rng rng(11);
  EXPECT_FALSE(bank.Train({"only one"}, &rng).ok());
}

class StringBankFixture : public testing::Test {
 protected:
  void SetUp() override {
    corpus_ = {
        "adaptive query optimization", "temporal middleware systems",
        "generalised hash teams",      "join and group-by processing",
        "frequent elements in streams", "parameterized complexity theory",
        "entity resolution at scale",  "duplicate detection pipelines",
        "similarity search indexes",   "schema matching with transformers",
        "crowdsourced data cleaning",  "probabilistic record linkage",
    };
    bank_ = std::make_unique<StringSynthesisBank>(FastBankOptions(), Sim);
    Rng rng(12);
    ASSERT_TRUE(bank_->Train(corpus_, &rng).ok());
  }

  std::vector<std::string> corpus_;
  std::unique_ptr<StringSynthesisBank> bank_;
};

TEST_F(StringBankFixture, TrainedWithStats) {
  EXPECT_TRUE(bank_->trained());
  const auto& stats = bank_->stats();
  ASSERT_EQ(stats.pairs_per_bucket.size(), 4u);
  int total = 0;
  for (int c : stats.pairs_per_bucket) total += c;
  EXPECT_GT(total, 0);
  EXPECT_GT(stats.train_seconds, 0.0);
}

TEST_F(StringBankFixture, SynthesizeHitsLowTargets) {
  Rng rng(13);
  const std::string s = "adaptive query optimization";
  double target = 0.08;
  double total_err = 0.0;
  for (int i = 0; i < 5; ++i) {
    std::string out = bank_->Synthesize(s, target, &rng);
    EXPECT_FALSE(out.empty());
    total_err += std::fabs(Sim(s, out) - target);
  }
  EXPECT_LT(total_err / 5, 0.25);
}

TEST_F(StringBankFixture, SynthesizeHitsHighTargets) {
  Rng rng(14);
  const std::string s = "duplicate detection pipelines";
  double target = 0.8;
  double total_err = 0.0;
  for (int i = 0; i < 5; ++i) {
    std::string out = bank_->Synthesize(s, target, &rng);
    EXPECT_FALSE(out.empty());
    total_err += std::fabs(Sim(s, out) - target);
  }
  EXPECT_LT(total_err / 5, 0.25);
}

TEST_F(StringBankFixture, SynthesizeClampsTargets) {
  Rng rng(15);
  std::string out = bank_->Synthesize("entity resolution at scale", 1.4,
                                      &rng);
  EXPECT_FALSE(out.empty());
}

// -------------------------------------------- bucket-fallback routing

/// Builds a trained-looking bank via RestoreTrained whose bucket b holds a
/// (random-weight) model iff trained_buckets[b] — routing in Synthesize
/// only depends on which buckets hold models, so untrained weights are
/// enough to observe bucket_hits.
std::unique_ptr<StringSynthesisBank> BankWithTrainedBuckets(
    const std::vector<bool>& trained_buckets,
    const std::vector<std::string>& corpus) {
  StringBankOptions opts = FastBankOptions();
  opts.num_buckets = static_cast<int>(trained_buckets.size());
  auto bank = std::make_unique<StringSynthesisBank>(opts, Sim);

  CharVocab vocab;
  vocab.Fit(corpus);
  std::vector<std::string> pool;
  for (const auto& s : corpus) {
    for (auto& w : WordTokens(s)) pool.push_back(std::move(w));
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  TransformerConfig cfg = opts.transformer;
  cfg.vocab_size = vocab.size();
  const size_t k = trained_buckets.size();
  std::vector<std::unique_ptr<TransformerSeq2Seq>> models(k);
  for (size_t b = 0; b < k; ++b) {
    if (!trained_buckets[b]) continue;
    Rng rng(100 + b);
    models[b] = std::make_unique<TransformerSeq2Seq>(cfg, &rng);
  }
  StringBankStats stats;
  stats.pairs_per_bucket.assign(k, 0);
  stats.bucket_trained = trained_buckets;
  stats.bucket_hits.assign(k, 0);
  SERD_CHECK(bank->RestoreTrained(std::move(vocab), corpus, std::move(pool),
                                  std::move(models), std::move(stats))
                 .ok());
  return bank;
}

const std::vector<std::string> kRoutingCorpus = {
    "adaptive query optimization", "temporal middleware systems",
    "generalised hash teams", "entity resolution at scale"};

TEST(StringBankFallbackTest, ExactBucketServesItsOwnTargets) {
  // 4 buckets; bucket 2 trained; target 0.6 lands in bucket 2.
  auto bank = BankWithTrainedBuckets({false, false, true, false},
                                     kRoutingCorpus);
  Rng rng(51);
  bank->Synthesize("adaptive query optimization", 0.6, &rng);
  EXPECT_EQ(bank->stats().bucket_hits[2], 1);
  EXPECT_EQ(bank->stats().fallback_calls, 0);
}

TEST(StringBankFallbackTest, NearestSearchPrefersLowerBucketAtEqualDistance) {
  // Target 0.6 -> bucket 2 (untrained); buckets 1 and 3 both trained at
  // distance 1 — the search probes lo before hi, so bucket 1 serves it.
  auto bank = BankWithTrainedBuckets({false, true, false, true},
                                     kRoutingCorpus);
  Rng rng(52);
  bank->Synthesize("temporal middleware systems", 0.6, &rng);
  EXPECT_EQ(bank->stats().bucket_hits[1], 1);
  EXPECT_EQ(bank->stats().bucket_hits[3], 0);
}

TEST(StringBankFallbackTest, NearestSearchReachesUpward) {
  // Only the top bucket is trained; a bottom-bucket target must walk all
  // the way up to it.
  auto bank = BankWithTrainedBuckets({false, false, false, true},
                                     kRoutingCorpus);
  Rng rng(53);
  bank->Synthesize("generalised hash teams", 0.0, &rng);
  EXPECT_EQ(bank->stats().bucket_hits[3], 1);
  EXPECT_EQ(bank->stats().fallback_calls, 0);
}

TEST(StringBankFallbackTest, NearestSearchReachesDownward) {
  // Only the bottom bucket is trained; BucketOf(1.0) = top bucket, so the
  // search walks down to bucket 0.
  auto bank = BankWithTrainedBuckets({true, false, false, false},
                                     kRoutingCorpus);
  Rng rng(54);
  bank->Synthesize("entity resolution at scale", 1.0, &rng);
  EXPECT_EQ(bank->stats().bucket_hits[0], 1);
}

TEST(StringBankFallbackTest, NoTrainedBucketsFallsBackToHillClimb) {
  auto bank = BankWithTrainedBuckets({false, false, false, false},
                                     kRoutingCorpus);
  Rng rng(55);
  std::string out = bank->Synthesize("adaptive query optimization", 0.5, &rng);
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(bank->stats().fallback_calls, 1);
  for (long h : bank->stats().bucket_hits) EXPECT_EQ(h, 0);
}

TEST(StringBankFallbackTest, BoundaryTargetsRouteToEdgeBuckets) {
  // BucketOf(0.0) = 0 and BucketOf(1.0) = k-1: with every bucket trained,
  // boundary targets are served by the edge models directly.
  auto bank =
      BankWithTrainedBuckets({true, true, true, true}, kRoutingCorpus);
  Rng rng(56);
  bank->Synthesize("temporal middleware systems", 0.0, &rng);
  EXPECT_EQ(bank->stats().bucket_hits[0], 1);
  bank->Synthesize("temporal middleware systems", 1.0, &rng);
  EXPECT_EQ(bank->stats().bucket_hits[3], 1);
}

// ------------------------------------- decode counters & path equivalence

TEST_F(StringBankFixture, IncrementalDecodeRecordsStatsAndCacheTraffic) {
  const auto& stats = bank_->stats();
  // Find a trained bucket and aim straight at it so the model path runs.
  int trained_bucket = -1;
  for (size_t b = 0; b < stats.bucket_trained.size(); ++b) {
    if (stats.bucket_trained[b]) trained_bucket = static_cast<int>(b);
  }
  ASSERT_GE(trained_bucket, 0) << "fixture trained no buckets";
  const double target = (trained_bucket + 0.5) / stats.bucket_trained.size();

  Rng rng(57);
  const std::string s = "similarity search indexes";
  bank_->Synthesize(s, target, &rng);
  EXPECT_GT(stats.decode_steps, 0);
  EXPECT_EQ(stats.decode_steps, stats.decode_cached_steps);
  EXPECT_GT(stats.encoder_cache_misses, 0);

  // Same (model, source) again: the per-thread encoder cache must hit.
  const long hits_before = stats.encoder_cache_hits;
  bank_->Synthesize(s, target, &rng);
  EXPECT_GT(stats.encoder_cache_hits, hits_before);
}

TEST(StringBankTest, IncrementalAndReferenceDecodeSynthesizeIdentically) {
  std::vector<std::string> corpus = {
      "adaptive query optimization", "temporal middleware systems",
      "generalised hash teams",      "join and group-by processing",
      "frequent elements in streams", "parameterized complexity theory",
      "entity resolution at scale",  "duplicate detection pipelines",
  };
  StringBankOptions ref_opts = FastBankOptions();
  ref_opts.incremental_decode = false;
  StringSynthesisBank cached(FastBankOptions(), Sim);
  StringSynthesisBank reference(ref_opts, Sim);
  Rng t1(58), t2(58);
  ASSERT_TRUE(cached.Train(corpus, &t1).ok());
  ASSERT_TRUE(reference.Train(corpus, &t2).ok());

  Rng s1(59), s2(59);
  for (double target : {0.1, 0.35, 0.6, 0.85}) {
    EXPECT_EQ(cached.Synthesize("entity resolution at scale", target, &s1),
              reference.Synthesize("entity resolution at scale", target, &s2))
        << "target " << target;
  }
  EXPECT_EQ(cached.stats().decode_steps, reference.stats().decode_steps);
  EXPECT_GT(cached.stats().decode_cached_steps, 0);
  EXPECT_EQ(reference.stats().decode_cached_steps, 0);
}

TEST(StringBankTest, UntrainedFallsBackToHillClimb) {
  StringSynthesisBank bank(FastBankOptions(), Sim);
  Rng rng(16);
  std::string out = bank.Synthesize("some reference string here", 0.7, &rng);
  EXPECT_FALSE(out.empty());
  EXPECT_NEAR(Sim("some reference string here", out), 0.7, 0.3);
}

/// Property sweep: synthesized similarity tracks the target across the
/// whole range (coarse tolerance; the refinement pass bounds the error).
class BankTargetSweep : public testing::TestWithParam<double> {};

TEST_P(BankTargetSweep, AchievedSimilarityTracksTarget) {
  static StringSynthesisBank* bank = [] {
    auto* b = new StringSynthesisBank(FastBankOptions(), Sim);
    std::vector<std::string> corpus = {
        "adaptive query optimization", "temporal middleware systems",
        "generalised hash teams",      "join and group-by processing",
        "frequent elements in streams", "parameterized complexity theory",
        "entity resolution at scale",  "duplicate detection pipelines",
    };
    Rng rng(17);
    SERD_CHECK(b->Train(corpus, &rng).ok());
    return b;
  }();
  Rng rng(18 + static_cast<uint64_t>(GetParam() * 100));
  std::string out =
      bank->Synthesize("generalised hash teams", GetParam(), &rng);
  ASSERT_FALSE(out.empty());
  EXPECT_NEAR(Sim("generalised hash teams", out), GetParam(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(TargetRange, BankTargetSweep,
                         testing::Values(0.05, 0.2, 0.4, 0.6, 0.8, 0.95));

}  // namespace
}  // namespace serd
