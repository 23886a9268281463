#ifndef SERD_SEQ2SEQ_TRANSFORMER_H_
#define SERD_SEQ2SEQ_TRANSFORMER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/modules.h"
#include "nn/quant.h"
#include "nn/tape.h"
#include "seq2seq/kv_cache.h"

namespace serd {

/// Reduced-precision copies of one decoder layer's projection weights —
/// exactly the per-step GEMMs of the KV-cached decode (BatchedDecoder).
/// Cross wk/wv are absent: they run once per source inside EncodeMemory,
/// not per step, and stay fp32 (DESIGN.md §5m).
struct QuantizedDecoderLayer {
  nn::QuantizedLinear self_wq, self_wk, self_wv, self_wo;
  nn::QuantizedLinear cross_wq, cross_wo;
  nn::QuantizedLinear ffn1, ffn2;
};

/// A full quantized weight set for a TransformerSeq2Seq's decode path.
/// LayerNorms, embeddings, and the logit projection (softmax input) stay
/// fp32; so do the encoder and the KV cache contents.
struct QuantizedDecodeWeights {
  nn::DecodePrecision precision = nn::DecodePrecision::kFp32;
  std::vector<QuantizedDecoderLayer> layers;  ///< one per decoder layer
};

/// Transformer hyperparameters. The paper uses d_model 256, 3 layers,
/// 8 heads, dropout 0.1 on GPU; our CPU-scale defaults are smaller (see
/// DESIGN.md substitution table) but the architecture is the same
/// encoder-decoder of "Attention is All You Need".
struct TransformerConfig {
  int vocab_size = 0;     ///< set from the CharVocab
  int d_model = 32;
  int num_heads = 2;
  int num_layers = 1;
  int ffn_dim = 64;
  int max_len = 64;       ///< maximum sequence length (positional table)
  float dropout = 0.1f;
};

/// Multi-head scaled dot-product attention. Query/key/value projections
/// plus an output projection; heads are realized as column slices.
class MultiHeadAttention : public nn::Module {
 public:
  MultiHeadAttention(int d_model, int num_heads, Rng* rng);

  /// queries[Tq,d], keys_values[Tk,d]. `mask` (optional) is an additive
  /// [Tq,Tk] matrix flattened row-major (0 = attend, -1e9 = blocked).
  nn::TensorPtr Forward(nn::Tape* tape, const nn::TensorPtr& queries,
                        const nn::TensorPtr& keys_values,
                        const std::vector<float>* mask) const;

 private:
  // The KV-cached decoder (kv_cache.cc) re-implements this forward
  // lane-batched against cached K/V, and EncodeMemory precomputes the
  // cross-attention projections; both need the raw projection layers.
  friend class BatchedDecoder;
  friend class TransformerSeq2Seq;

  int d_model_, num_heads_, head_dim_;
  std::unique_ptr<nn::Linear> wq_, wk_, wv_, wo_;
};

/// Pre-LayerNorm encoder layer: x + MHA(LN(x)), then x + FFN(LN(x)).
class EncoderLayer : public nn::Module {
 public:
  EncoderLayer(const TransformerConfig& config, Rng* rng);

  nn::TensorPtr Forward(nn::Tape* tape, const nn::TensorPtr& x, float dropout,
                        Rng* rng) const;

 private:
  std::unique_ptr<MultiHeadAttention> self_attn_;
  std::unique_ptr<nn::LayerNormLayer> ln1_, ln2_;
  std::unique_ptr<nn::Linear> ffn1_, ffn2_;
};

/// Pre-LayerNorm decoder layer: causal self-attention, cross-attention
/// over the encoder memory, then FFN.
class DecoderLayer : public nn::Module {
 public:
  DecoderLayer(const TransformerConfig& config, Rng* rng);

  nn::TensorPtr Forward(nn::Tape* tape, const nn::TensorPtr& x,
                        const nn::TensorPtr& memory,
                        const std::vector<float>* causal_mask, float dropout,
                        Rng* rng) const;

 private:
  friend class BatchedDecoder;
  friend class TransformerSeq2Seq;

  std::unique_ptr<MultiHeadAttention> self_attn_, cross_attn_;
  std::unique_ptr<nn::LayerNormLayer> ln1_, ln2_, ln3_;
  std::unique_ptr<nn::Linear> ffn1_, ffn2_;
};

/// Character-level encoder-decoder transformer for string synthesis
/// (paper Section VI). Token ids come from a CharVocab; id 1 (BOS) starts
/// decoding and id 2 (EOS) terminates it.
class TransformerSeq2Seq : public nn::Module {
 public:
  TransformerSeq2Seq(const TransformerConfig& config, Rng* rng);

  const TransformerConfig& config() const { return config_; }

  /// Teacher-forced training loss: encodes `src_ids`, decodes against
  /// `tgt_ids` shifted by one, returns mean cross-entropy (1x1 tensor).
  /// Dropout is applied when `train_rng` is non-null.
  nn::TensorPtr Loss(nn::Tape* tape, const std::vector<int>& src_ids,
                     const std::vector<int>& tgt_ids, Rng* train_rng) const;

  /// Autoregressive sampled decoding: encodes src once, then repeatedly
  /// samples the next token from softmax(logits / temperature) until EOS
  /// or the length cap. Returns the generated ids without BOS/EOS. This is
  /// the fp32 reference (--reference-decode): each step re-decodes the
  /// whole prefix (O(T^2) attention per step). GenerateBatchLanes is
  /// validated against it, step by step and token by token.
  std::vector<int> Generate(const std::vector<int>& src_ids, Rng* rng,
                            float temperature = 1.0f,
                            GenerateStats* stats = nullptr) const;

  /// Candidate callback for GenerateBatchLanes: candidate index and its
  /// generated ids (no BOS/EOS). Return false to stop early — remaining
  /// candidates are abandoned and never delivered.
  using CandidateFn = std::function<bool(int, const std::vector<int>&)>;

  /// Runs the encoder once (inference mode, no dropout) and captures the
  /// memory plus each decoder layer's cross-attention K/V for reuse across
  /// candidates and rejection-loop retries.
  EncoderMemoryPtr EncodeMemory(const std::vector<int>& src_ids) const;

  /// The candidate decoder. Candidate c samples from its own
  /// counter-derived Rng seeded with ShardedRng::DeriveSeed(stream_seed, c),
  /// so no draw order couples the candidates and every live candidate
  /// advances one position per BatchedDecoder::Step (one M-row GEMM per
  /// weight per layer per step). Lanes retire on EOS or the length cap, so
  /// the batch shrinks as candidates finish. `on_candidate` is invoked in
  /// candidate order (finished lanes are buffered until every
  /// lower-indexed lane has been delivered); returning false abandons all
  /// undelivered candidates. Candidate c's tokens equal
  /// Generate(src, &Rng(DeriveSeed(stream_seed, c))) exactly at fp32, and
  /// never depend on how many sibling lanes decode alongside it
  /// (DESIGN.md §5k). Returns the number of candidates delivered.
  int GenerateBatchLanes(const EncoderMemoryPtr& memory, int num_candidates,
                         std::uint64_t stream_seed, float temperature,
                         const CandidateFn& on_candidate,
                         GenerateStats* stats = nullptr) const;

  /// Next-token logits after `prefix_ids` (which must start with BOS) via
  /// the full re-decode over `memory` — the reference the equivalence
  /// tests compare BatchedDecoder::Step against.
  std::vector<float> NextLogitsFull(const std::vector<int>& prefix_ids,
                                    const EncoderMemoryPtr& memory) const;

  /// Process-unique id, assigned at construction. Keys the per-thread
  /// encoder-memory caches so a freed model's address being reused can
  /// never alias a cache entry.
  std::uint64_t uid() const { return uid_; }

  /// One-shot weight quantization for serving: packs every decoder
  /// layer's per-step projection weights (self wq/wk/wv/wo, cross wq/wo,
  /// ffn1/ffn2) into `precision` and routes the KV-cached decode through
  /// the quantized kernels. kFp32 clears any attached set,
  /// restoring the exact path. Re-quantizing to the precision already
  /// attached is a no-op. Training and the full re-decode reference
  /// (Generate / NextLogitsFull / --reference-decode) always stay fp32.
  void QuantizeWeights(nn::DecodePrecision precision);

  /// Attaches a pre-quantized weight set (the artifact load path, so
  /// serving never pays quantize-on-load). Layer count must match the
  /// decoder depth.
  void SetQuantizedWeights(std::unique_ptr<QuantizedDecodeWeights> weights);

  /// The attached quantized set, or null when decoding runs fp32.
  const QuantizedDecodeWeights* quantized_weights() const {
    return quant_.get();
  }

 private:
  friend class BatchedDecoder;

  nn::TensorPtr Encode(nn::Tape* tape, const std::vector<int>& src_ids,
                       float dropout, Rng* rng) const;
  nn::TensorPtr Decode(nn::Tape* tape, const std::vector<int>& tgt_ids,
                       const nn::TensorPtr& memory, float dropout,
                       Rng* rng) const;

  TransformerConfig config_;
  std::uint64_t uid_;
  std::unique_ptr<nn::Embedding> token_embed_;
  std::unique_ptr<nn::Embedding> pos_embed_;
  std::vector<std::unique_ptr<EncoderLayer>> encoder_;
  std::vector<std::unique_ptr<DecoderLayer>> decoder_;
  std::unique_ptr<nn::LayerNormLayer> final_ln_;
  std::unique_ptr<nn::Linear> output_proj_;
  std::unique_ptr<QuantizedDecodeWeights> quant_;
};

}  // namespace serd

#endif  // SERD_SEQ2SEQ_TRANSFORMER_H_
