#ifndef SERD_SEQ2SEQ_MODEL_BANK_H_
#define SERD_SEQ2SEQ_MODEL_BANK_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "seq2seq/trainer.h"
#include "seq2seq/transformer.h"
#include "text/char_vocab.h"

namespace serd {

/// Similarity function over strings (bound to the column's measure).
using StringSimFn =
    std::function<double(const std::string&, const std::string&)>;

/// Options for the bucketed string synthesizer (paper Section VI).
struct StringBankOptions {
  int num_buckets = 10;        ///< paper: 10 similarity intervals
  int num_candidates = 10;     ///< paper: 10 sampled decoder outputs
  float temperature = 0.9f;    ///< decoding temperature
  TransformerConfig transformer;  ///< vocab_size is filled during training
  Seq2SeqTrainOptions train;
  int max_pairs_per_bucket = 160;
  int min_pairs_per_bucket = 6;   ///< buckets below this are left untrained
  int random_pair_samples = 4000; ///< background pairs examined for bucketing

  /// Decode candidates through the lockstep KV-cached decoder
  /// (TransformerSeq2Seq::GenerateBatchLanes over one encoder memory per
  /// call). Off = the fp32 reference: each
  /// candidate re-encodes the source and re-decodes the whole prefix per
  /// step (TransformerSeq2Seq::Generate), on the same per-candidate RNG
  /// streams (serd_cli --reference-decode). At fp32 both settings
  /// synthesize bit-identical strings at a fixed seed.
  bool incremental_decode = true;

  /// Numeric format for the KV-cached decode projections (DESIGN.md §5m):
  /// kFp32 is the exact path, kBf16/kInt8 quantize each trained model's
  /// decoder projection weights once after training/restore and route the
  /// per-step GEMMs through the reduced-precision kernels. Released bytes
  /// can change vs fp32 (perturbed logits), which is why the quality gate
  /// is an e2e F1/JSD delta bound, not bitwise equality. Only consulted
  /// when incremental_decode is on — the full re-decode reference
  /// (--reference-decode) always runs fp32.
  nn::DecodePrecision decode_precision = nn::DecodePrecision::kFp32;

  /// Observability sink (not owned; nullptr = off): counters
  /// s2.bank_synth_calls / s2.bank_fallback_calls / s2.bank_refined_calls
  /// / s2.decode_steps / s2.decode_cached_steps /
  /// s2.decode_quantized_steps,
  /// histogram s2.bank_bucket (index of the model actually used).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-bucket training/inference statistics for reports and ablations.
struct StringBankStats {
  std::vector<int> pairs_per_bucket;
  std::vector<bool> bucket_trained;
  double train_seconds = 0.0;
  double mean_epsilon = 0.0;  ///< mean DP epsilon across trained buckets
  int synth_calls = 0;
  int refined_calls = 0;      ///< how often hill-climb refinement kicked in
  /// Synthesize calls served by each bucket's model (after the nearest-
  /// trained-bucket redirect); length num_buckets once trained.
  std::vector<long> bucket_hits;
  long fallback_calls = 0;    ///< calls served by hill-climb search alone
  // Decode-path accounting (not serialized by the artifact store — the
  // model codec writes the fields above only, so adding these keeps old
  // artifacts loadable and save→load→save byte-identical).
  long decode_steps = 0;         ///< next-token logits rows computed
  long decode_cached_steps = 0;  ///< of those, served by the KV cache
  long decode_quantized_steps = 0;  ///< of those, int8/bf16 projections
};

/// The paper's string synthesizer: k transformer models M_1..M_k, one per
/// similarity interval I_i, trained differentially privately on background
/// string pairs whose similarity falls in I_i. Synthesize(s, sim) picks
/// the bucket containing sim, samples `num_candidates` outputs, and
/// returns the one whose achieved similarity is closest to sim.
class StringSynthesisBank {
 public:
  StringSynthesisBank(StringBankOptions options, StringSimFn sim);

  /// Trains the bank from a background corpus (strings from the same
  /// domain, disjoint from the active domain — the privacy mechanism of
  /// paper Fig. 2). Pairs are formed by (a) random corpus pairs, which
  /// populate the low-similarity buckets, and (b) perturbation-augmented
  /// pairs (s, perturb*(s)), which populate mid/high buckets the way
  /// near-duplicates do in real crawled corpora.
  Status Train(const std::vector<std::string>& background_corpus, Rng* rng);

  /// Trains from explicit labeled pairs (callers that already have them).
  Status TrainFromPairs(
      const std::vector<std::pair<std::string, std::string>>& pairs,
      Rng* rng);

  /// Synthesizes s' with sim(s, s') ≈ target_sim. Falls back to
  /// hill-climbing from s (high targets) or from a random background
  /// string (low targets) for untrained buckets.
  std::string Synthesize(const std::string& s, double target_sim,
                         Rng* rng) const;

  bool trained() const { return trained_; }
  const StringBankStats& stats() const { return stats_; }
  const CharVocab& vocab() const { return vocab_; }

  /// Switches the decode precision on a trained/restored bank (serve jobs
  /// toggle it per request on a warm bank). Quantizes every trained
  /// model's decoder projections to `precision` (a no-op for models
  /// already carrying that precision, including pre-quantized artifact
  /// loads) or clears them back to the exact fp32 path. The trained fp32
  /// weights are never modified.
  void set_decode_precision(nn::DecodePrecision precision);
  nn::DecodePrecision decode_precision() const {
    return options_.decode_precision;
  }

  /// Cooperative cancellation for candidate decode (not owned; nullptr =
  /// never cancelled). A tripped token is folded into the decoder's
  /// early-stop callbacks, so a Synthesize call abandons remaining
  /// candidates within one decode step and returns its best-so-far — the
  /// caller (SerdSynthesizer::Synthesize) then observes the token at its
  /// next poll and aborts the run, so the truncated string is discarded,
  /// never released. Set per run by the synthesizer; clear with nullptr.
  void set_cancel_token(const CancelToken* cancel) { cancel_ = cancel; }

  /// The bucket index whose interval contains `sim`.
  int BucketOf(double sim) const;

  // --- artifact-store access (src/artifact) ---

  /// Per-bucket models (index = bucket; null = untrained bucket).
  const std::vector<std::unique_ptr<TransformerSeq2Seq>>& models() const {
    return models_;
  }

  /// Mutable access to a bucket's model (null = untrained bucket). Used by
  /// the artifact store to attach pre-quantized decode weights after
  /// RestoreTrained; never replaces the model itself.
  TransformerSeq2Seq* mutable_model(std::size_t bucket) {
    return bucket < models_.size() ? models_[bucket].get() : nullptr;
  }
  const std::vector<std::string>& corpus() const { return corpus_; }
  const std::vector<std::string>& word_pool() const { return word_pool_; }

  /// Reinstates a trained bank from serialized state without re-running
  /// DP training (warm start). `models.size()` becomes the bank's bucket
  /// count (the trained structure is authoritative over the constructor
  /// options); the stats vectors must match it. The DP epsilon recorded in
  /// `stats.mean_epsilon` is the budget spent by the original training —
  /// reloading spends nothing further.
  Status RestoreTrained(CharVocab vocab, std::vector<std::string> corpus,
                        std::vector<std::string> word_pool,
                        std::vector<std::unique_ptr<TransformerSeq2Seq>> models,
                        StringBankStats stats);

 private:
  std::string SynthesizeWithModel(int bucket, const std::string& s,
                                  double target_sim, Rng* rng) const;
  std::string FallbackSynthesize(const std::string& s, double target_sim,
                                 Rng* rng) const;

  StringBankOptions options_;
  StringSimFn sim_;
  CharVocab vocab_;
  std::vector<std::unique_ptr<TransformerSeq2Seq>> models_;  // size k; may hold nulls
  std::vector<std::string> word_pool_;  // background words for refinement
  std::vector<std::string> corpus_;     // background strings (fallback seeds)
  bool trained_ = false;
  const CancelToken* cancel_ = nullptr;  // not owned; see set_cancel_token
  mutable StringBankStats stats_;
};

}  // namespace serd

#endif  // SERD_SEQ2SEQ_MODEL_BANK_H_
