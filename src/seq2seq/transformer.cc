#include "seq2seq/transformer.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "nn/arena.h"
#include "nn/kernels.h"
#include "runtime/sharded_rng.h"
#include "text/char_vocab.h"

namespace serd {

using nn::Tape;
using nn::TensorPtr;
namespace kernels = nn::kernels;

MultiHeadAttention::MultiHeadAttention(int d_model, int num_heads, Rng* rng)
    : d_model_(d_model), num_heads_(num_heads), head_dim_(d_model / num_heads) {
  SERD_CHECK_EQ(d_model % num_heads, 0)
      << "d_model must be divisible by num_heads";
  wq_ = std::make_unique<nn::Linear>(d_model, d_model, rng);
  wk_ = std::make_unique<nn::Linear>(d_model, d_model, rng);
  wv_ = std::make_unique<nn::Linear>(d_model, d_model, rng);
  wo_ = std::make_unique<nn::Linear>(d_model, d_model, rng);
  AddChild(wq_.get());
  AddChild(wk_.get());
  AddChild(wv_.get());
  AddChild(wo_.get());
}

TensorPtr MultiHeadAttention::Forward(Tape* tape, const TensorPtr& queries,
                                      const TensorPtr& keys_values,
                                      const std::vector<float>* mask) const {
  TensorPtr q = wq_->Forward(tape, queries);       // [Tq, d]
  TensorPtr k = wk_->Forward(tape, keys_values);   // [Tk, d]
  TensorPtr v = wv_->Forward(tape, keys_values);   // [Tk, d]
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  std::vector<TensorPtr> head_outputs;
  head_outputs.reserve(num_heads_);
  for (int h = 0; h < num_heads_; ++h) {
    size_t off = static_cast<size_t>(h) * head_dim_;
    TensorPtr qh = tape->SliceCols(q, off, head_dim_);  // [Tq, hd]
    TensorPtr kh = tape->SliceCols(k, off, head_dim_);  // [Tk, hd]
    TensorPtr vh = tape->SliceCols(v, off, head_dim_);  // [Tk, hd]
    TensorPtr scores =
        tape->Scale(tape->MatMul(qh, tape->Transpose(kh)), scale);  // [Tq,Tk]
    TensorPtr attn = tape->RowSoftmax(scores, mask);
    head_outputs.push_back(tape->MatMul(attn, vh));  // [Tq, hd]
  }
  TensorPtr concat = tape->ConcatCols(head_outputs);  // [Tq, d]
  return wo_->Forward(tape, concat);
}

EncoderLayer::EncoderLayer(const TransformerConfig& config, Rng* rng) {
  self_attn_ =
      std::make_unique<MultiHeadAttention>(config.d_model, config.num_heads,
                                           rng);
  ln1_ = std::make_unique<nn::LayerNormLayer>(config.d_model);
  ln2_ = std::make_unique<nn::LayerNormLayer>(config.d_model);
  ffn1_ = std::make_unique<nn::Linear>(config.d_model, config.ffn_dim, rng);
  ffn2_ = std::make_unique<nn::Linear>(config.ffn_dim, config.d_model, rng);
  AddChild(self_attn_.get());
  AddChild(ln1_.get());
  AddChild(ln2_.get());
  AddChild(ffn1_.get());
  AddChild(ffn2_.get());
}

TensorPtr EncoderLayer::Forward(Tape* tape, const TensorPtr& x, float dropout,
                                Rng* rng) const {
  TensorPtr normed = ln1_->Forward(tape, x);
  TensorPtr attn = self_attn_->Forward(tape, normed, normed, nullptr);
  if (rng != nullptr) attn = tape->Dropout(attn, dropout, rng);
  TensorPtr h = tape->Add(x, attn);
  TensorPtr ff = ffn2_->Forward(
      tape, tape->Gelu(ffn1_->Forward(tape, ln2_->Forward(tape, h))));
  if (rng != nullptr) ff = tape->Dropout(ff, dropout, rng);
  return tape->Add(h, ff);
}

DecoderLayer::DecoderLayer(const TransformerConfig& config, Rng* rng) {
  self_attn_ =
      std::make_unique<MultiHeadAttention>(config.d_model, config.num_heads,
                                           rng);
  cross_attn_ =
      std::make_unique<MultiHeadAttention>(config.d_model, config.num_heads,
                                           rng);
  ln1_ = std::make_unique<nn::LayerNormLayer>(config.d_model);
  ln2_ = std::make_unique<nn::LayerNormLayer>(config.d_model);
  ln3_ = std::make_unique<nn::LayerNormLayer>(config.d_model);
  ffn1_ = std::make_unique<nn::Linear>(config.d_model, config.ffn_dim, rng);
  ffn2_ = std::make_unique<nn::Linear>(config.ffn_dim, config.d_model, rng);
  AddChild(self_attn_.get());
  AddChild(cross_attn_.get());
  AddChild(ln1_.get());
  AddChild(ln2_.get());
  AddChild(ln3_.get());
  AddChild(ffn1_.get());
  AddChild(ffn2_.get());
}

TensorPtr DecoderLayer::Forward(Tape* tape, const TensorPtr& x,
                                const TensorPtr& memory,
                                const std::vector<float>* causal_mask,
                                float dropout, Rng* rng) const {
  TensorPtr normed = ln1_->Forward(tape, x);
  TensorPtr self_out =
      self_attn_->Forward(tape, normed, normed, causal_mask);
  if (rng != nullptr) self_out = tape->Dropout(self_out, dropout, rng);
  TensorPtr h = tape->Add(x, self_out);

  TensorPtr cross_out =
      cross_attn_->Forward(tape, ln2_->Forward(tape, h), memory, nullptr);
  if (rng != nullptr) cross_out = tape->Dropout(cross_out, dropout, rng);
  h = tape->Add(h, cross_out);

  TensorPtr ff = ffn2_->Forward(
      tape, tape->Gelu(ffn1_->Forward(tape, ln3_->Forward(tape, h))));
  if (rng != nullptr) ff = tape->Dropout(ff, dropout, rng);
  return tape->Add(h, ff);
}

namespace {

std::uint64_t NextModelUid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TransformerSeq2Seq::TransformerSeq2Seq(const TransformerConfig& config,
                                       Rng* rng)
    : config_(config), uid_(NextModelUid()) {
  SERD_CHECK_GT(config.vocab_size, 0);
  token_embed_ =
      std::make_unique<nn::Embedding>(config.vocab_size, config.d_model, rng);
  pos_embed_ =
      std::make_unique<nn::Embedding>(config.max_len, config.d_model, rng);
  for (int i = 0; i < config.num_layers; ++i) {
    encoder_.push_back(std::make_unique<EncoderLayer>(config, rng));
    decoder_.push_back(std::make_unique<DecoderLayer>(config, rng));
  }
  final_ln_ = std::make_unique<nn::LayerNormLayer>(config.d_model);
  output_proj_ =
      std::make_unique<nn::Linear>(config.d_model, config.vocab_size, rng);
  AddChild(token_embed_.get());
  AddChild(pos_embed_.get());
  for (auto& l : encoder_) AddChild(l.get());
  for (auto& l : decoder_) AddChild(l.get());
  AddChild(final_ln_.get());
  AddChild(output_proj_.get());
}

namespace {

std::vector<int> ClampToMaxLen(const std::vector<int>& ids, int max_len) {
  if (static_cast<int>(ids.size()) <= max_len) return ids;
  std::vector<int> out(ids.begin(), ids.begin() + max_len - 1);
  out.push_back(CharVocab::kEos);
  return out;
}

std::vector<int> Positions(size_t len) {
  std::vector<int> pos(len);
  for (size_t i = 0; i < len; ++i) pos[i] = static_cast<int>(i);
  return pos;
}

std::vector<float> CausalMask(size_t t) {
  std::vector<float> mask(t * t, 0.0f);
  for (size_t i = 0; i < t; ++i) {
    for (size_t j = i + 1; j < t; ++j) mask[i * t + j] = -1e9f;
  }
  return mask;
}

/// Samples the next token from softmax(logits / temperature) with the
/// special ids (PAD/BOS/UNK) excluded. `probs` and `weights` are
/// caller-owned scratch reused across steps and candidates, so the decode
/// loops allocate nothing per step. The softmax goes through the kernel
/// primitive; Rng::Categorical renormalizes internally, so zeroing the
/// specials after the softmax preserves the sampling distribution. Shared
/// by Generate and GenerateBatchLanes so both draw identical tokens from
/// identical logits.
int SampleToken(const float* logits, size_t vocab, float temperature,
                std::vector<float>* probs, std::vector<double>* weights,
                Rng* rng) {
  probs->resize(vocab);
  weights->resize(vocab);
  kernels::ScaleCopy(vocab, 1.0f / temperature, logits, probs->data());
  kernels::SoftmaxRows(1, vocab, probs->data(), /*add_mask=*/nullptr,
                       probs->data());
  std::copy(probs->begin(), probs->end(), weights->begin());
  // Never sample PAD, BOS, or UNK.
  (*weights)[CharVocab::kPad] = 0.0;
  (*weights)[CharVocab::kBos] = 0.0;
  (*weights)[CharVocab::kUnk] = 0.0;
  return static_cast<int>(rng->Categorical(*weights));
}

/// Rebuilds a tensor view of the captured encoder memory for
/// NextLogitsFull's full re-decode. Values are the exact floats Encode
/// produced, so decoding over it matches decoding over the live Encode
/// output bitwise.
TensorPtr MemoryTensor(const EncoderMemory& m) {
  auto t = nn::MakeTensor(m.mem_len, m.d_model);
  std::copy(m.values.begin(), m.values.end(), t->value().begin());
  return t;
}

}  // namespace

TensorPtr TransformerSeq2Seq::Encode(Tape* tape,
                                     const std::vector<int>& src_ids,
                                     float dropout, Rng* rng) const {
  auto ids = ClampToMaxLen(src_ids, config_.max_len);
  TensorPtr x = tape->Add(token_embed_->Forward(tape, ids),
                          pos_embed_->Forward(tape, Positions(ids.size())));
  if (rng != nullptr) x = tape->Dropout(x, dropout, rng);
  for (const auto& layer : encoder_) {
    x = layer->Forward(tape, x, dropout, rng);
  }
  return x;
}

TensorPtr TransformerSeq2Seq::Decode(Tape* tape,
                                     const std::vector<int>& tgt_ids,
                                     const TensorPtr& memory, float dropout,
                                     Rng* rng) const {
  TensorPtr x = tape->Add(token_embed_->Forward(tape, tgt_ids),
                          pos_embed_->Forward(tape, Positions(tgt_ids.size())));
  if (rng != nullptr) x = tape->Dropout(x, dropout, rng);
  std::vector<float> mask = CausalMask(tgt_ids.size());
  for (const auto& layer : decoder_) {
    x = layer->Forward(tape, x, memory, &mask, dropout, rng);
  }
  return output_proj_->Forward(tape, final_ln_->Forward(tape, x));
}

TensorPtr TransformerSeq2Seq::Loss(Tape* tape, const std::vector<int>& src_ids,
                                   const std::vector<int>& tgt_ids,
                                   Rng* train_rng) const {
  SERD_CHECK_GE(tgt_ids.size(), 2u) << "target must contain BOS and EOS";
  auto tgt = ClampToMaxLen(tgt_ids, config_.max_len);
  std::vector<int> decoder_input(tgt.begin(), tgt.end() - 1);
  std::vector<int> targets(tgt.begin() + 1, tgt.end());
  TensorPtr memory = Encode(tape, src_ids, config_.dropout, train_rng);
  TensorPtr logits =
      Decode(tape, decoder_input, memory, config_.dropout, train_rng);
  return tape->CrossEntropy(logits, targets, CharVocab::kPad);
}

std::vector<int> TransformerSeq2Seq::Generate(const std::vector<int>& src_ids,
                                              Rng* rng, float temperature,
                                              GenerateStats* stats) const {
  SERD_CHECK(rng != nullptr);
  SERD_CHECK_GT(temperature, 0.0f);
  Tape enc_tape;
  enc_tape.set_recording(false);
  TensorPtr memory = Encode(&enc_tape, src_ids, 0.0f, nullptr);

  // Strings in one column have comparable lengths; capping generation at
  // src length + slack keeps undertrained models (which rarely emit EOS)
  // from always decoding to max_len, the dominant online cost.
  const int length_cap = std::min<int>(
      config_.max_len, static_cast<int>(src_ids.size()) + 8);
  // Per-thread arena for the decode steps: each step builds the same
  // graph one token longer, so recycling the previous step's tensors
  // removes nearly all per-op allocation. `memory` lives outside the
  // arena (enc_tape has none), so the per-step reset cannot touch it.
  thread_local nn::TensorArena decode_arena;
  // Sampling scratch, reused across every step (hoisted out of the loop).
  std::vector<float> probs;
  std::vector<double> weights;
  std::vector<int> generated = {CharVocab::kBos};
  while (static_cast<int>(generated.size()) < length_cap) {
    Tape dec_tape;
    decode_arena.Reset();
    dec_tape.set_arena(&decode_arena);
    dec_tape.set_recording(false);
    TensorPtr logits = Decode(&dec_tape, generated, memory, 0.0f, nullptr);
    if (stats != nullptr) ++stats->steps;
    const size_t last = logits->rows() - 1;
    const int next =
        SampleToken(logits->value().data() + last * logits->cols(),
                    logits->cols(), temperature, &probs, &weights, rng);
    if (next == CharVocab::kEos) break;
    generated.push_back(next);
  }
  return std::vector<int>(generated.begin() + 1, generated.end());
}

EncoderMemoryPtr TransformerSeq2Seq::EncodeMemory(
    const std::vector<int>& src_ids) const {
  // Per-thread arena for the encoder pass, as in Generate: every
  // intermediate tensor is recycled from the previous call. Nothing
  // escapes it — `out` copies the memory rows and projects from the copy.
  thread_local nn::TensorArena encode_arena;
  encode_arena.Reset();
  Tape tape;
  tape.set_arena(&encode_arena);
  tape.set_recording(false);
  TensorPtr mem = Encode(&tape, src_ids, 0.0f, nullptr);

  auto out = std::make_shared<EncoderMemory>();
  out->model_uid = uid_;
  out->mem_len = static_cast<int>(mem->rows());
  out->d_model = static_cast<int>(mem->cols());
  out->src_len = static_cast<int>(src_ids.size());
  out->values = mem->value();
  out->cross.resize(decoder_.size());
  // Cross-attention K/V depend only on the memory: precompute them with
  // the exact kernel calls Linear::Forward makes (full-matrix GEMM + the
  // per-row bias add of AddRowBroadcast), so every cached decode step sees
  // bit-identical projections.
  const size_t ml = mem->rows(), d = mem->cols();
  for (size_t l = 0; l < decoder_.size(); ++l) {
    const MultiHeadAttention& cross = *decoder_[l]->cross_attn_;
    auto project = [&](const nn::Linear& lin, std::vector<float>* dst) {
      dst->resize(ml * d);
      kernels::GemmNN(ml, d, d, out->values.data(),
                      lin.weight()->value().data(), dst->data(),
                      /*accumulate=*/false);
      if (lin.bias() != nullptr) {
        const float* bias = lin.bias()->value().data();
        for (size_t r = 0; r < ml; ++r) {
          kernels::Add(d, dst->data() + r * d, bias, dst->data() + r * d);
        }
      }
    };
    project(*cross.wk_, &out->cross[l].k);
    project(*cross.wv_, &out->cross[l].v);
  }
  return out;
}

int TransformerSeq2Seq::GenerateBatchLanes(const EncoderMemoryPtr& memory,
                                           int num_candidates,
                                           std::uint64_t stream_seed,
                                           float temperature,
                                           const CandidateFn& on_candidate,
                                           GenerateStats* stats) const {
  SERD_CHECK(memory != nullptr);
  SERD_CHECK_EQ(memory->model_uid, uid_)
      << "encoder memory was built by a different model";
  SERD_CHECK_GT(temperature, 0.0f);
  SERD_CHECK_GT(num_candidates, 0);
  // Same cap as Generate, from the unclamped source length.
  const int length_cap =
      std::min<int>(config_.max_len, memory->src_len + 8);
  std::vector<float> probs;
  std::vector<double> weights;
  int produced = 0;

  BatchedDecoder dec(this, memory, num_candidates);
  std::vector<Rng> lane_rngs;
  lane_rngs.reserve(num_candidates);
  for (int c = 0; c < num_candidates; ++c) {
    lane_rngs.emplace_back(runtime::ShardedRng::DeriveSeed(
        stream_seed, static_cast<uint64_t>(c)));
  }
  std::vector<std::vector<int>> generated(
      num_candidates, std::vector<int>{CharVocab::kBos});
  std::vector<bool> finished(num_candidates, false);
  // Logits rows sampled per lane, credited to `stats` on delivery only.
  std::vector<long> lane_steps(num_candidates, 0);
  std::vector<int> live, still, tokens;
  if (length_cap > 1) {
    live.resize(num_candidates);
    for (int c = 0; c < num_candidates; ++c) live[c] = c;
  } else {
    finished.assign(num_candidates, true);  // degenerate cap: empty outputs
  }
  int next_to_deliver = 0;
  // Delivers every finished lane whose predecessors are all delivered.
  // Returns false when the callback stops the batch.
  auto deliver_ready = [&]() {
    while (next_to_deliver < num_candidates && finished[next_to_deliver]) {
      const auto& g = generated[next_to_deliver];
      std::vector<int> out_ids(g.begin() + 1, g.end());
      if (stats != nullptr) {
        const long steps = lane_steps[next_to_deliver];
        stats->steps += steps;
        stats->cached_steps += steps;
        if (quant_ != nullptr) stats->quantized_steps += steps;
      }
      ++produced;
      if (!on_candidate(next_to_deliver, out_ids)) return false;
      ++next_to_deliver;
    }
    return true;
  };
  while (!live.empty()) {
    tokens.clear();
    for (int lane : live) tokens.push_back(generated[lane].back());
    const float* logits = dec.Step(live, tokens);
    still.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      const int lane = live[i];
      ++lane_steps[lane];
      const int next = SampleToken(
          logits + i * static_cast<std::size_t>(config_.vocab_size),
          config_.vocab_size, temperature, &probs, &weights,
          &lane_rngs[lane]);
      if (next != CharVocab::kEos) generated[lane].push_back(next);
      if (next == CharVocab::kEos ||
          static_cast<int>(generated[lane].size()) >= length_cap) {
        finished[lane] = true;  // lane retires; its cache rows go dormant
      } else {
        still.push_back(lane);
      }
    }
    live.swap(still);
    // Early stop abandons every live and undelivered lane. Abandoned
    // lanes drew only from their own streams, so delivered candidates
    // are unaffected.
    if (!deliver_ready()) return produced;
  }
  deliver_ready();
  return produced;
}

namespace {

/// Packs one nn::Linear into a QuantizedLinear: the [in, out] fp32 weight
/// transposes into the contiguous-per-channel quantized layout, and the
/// bias (if any) is copied so the kernels can fuse it into the dequant
/// epilogue.
nn::QuantizedLinear QuantizeLinear(const nn::Linear& lin,
                                   nn::DecodePrecision precision) {
  const nn::TensorPtr& w = lin.weight();
  nn::QuantizedLinear out;
  out.w = nn::QuantizeWeightMatrix(w->rows(), w->cols(),
                                   w->value().data(), precision);
  if (lin.bias() != nullptr) out.bias = lin.bias()->value();
  return out;
}

}  // namespace

void TransformerSeq2Seq::QuantizeWeights(nn::DecodePrecision precision) {
  if (precision == nn::DecodePrecision::kFp32) {
    quant_.reset();
    return;
  }
  if (quant_ != nullptr && quant_->precision == precision) return;
  auto qw = std::make_unique<QuantizedDecodeWeights>();
  qw->precision = precision;
  qw->layers.reserve(decoder_.size());
  for (const auto& layer : decoder_) {
    QuantizedDecoderLayer ql;
    ql.self_wq = QuantizeLinear(*layer->self_attn_->wq_, precision);
    ql.self_wk = QuantizeLinear(*layer->self_attn_->wk_, precision);
    ql.self_wv = QuantizeLinear(*layer->self_attn_->wv_, precision);
    ql.self_wo = QuantizeLinear(*layer->self_attn_->wo_, precision);
    ql.cross_wq = QuantizeLinear(*layer->cross_attn_->wq_, precision);
    ql.cross_wo = QuantizeLinear(*layer->cross_attn_->wo_, precision);
    ql.ffn1 = QuantizeLinear(*layer->ffn1_, precision);
    ql.ffn2 = QuantizeLinear(*layer->ffn2_, precision);
    qw->layers.push_back(std::move(ql));
  }
  quant_ = std::move(qw);
}

void TransformerSeq2Seq::SetQuantizedWeights(
    std::unique_ptr<QuantizedDecodeWeights> weights) {
  if (weights != nullptr) {
    SERD_CHECK_EQ(weights->layers.size(), decoder_.size())
        << "quantized weight set does not match the decoder depth";
    SERD_CHECK(weights->precision != nn::DecodePrecision::kFp32);
  }
  quant_ = std::move(weights);
}

std::vector<float> TransformerSeq2Seq::NextLogitsFull(
    const std::vector<int>& prefix_ids, const EncoderMemoryPtr& memory) const {
  SERD_CHECK(!prefix_ids.empty());
  SERD_CHECK(memory != nullptr);
  SERD_CHECK_EQ(memory->model_uid, uid_);
  TensorPtr mem_tensor = MemoryTensor(*memory);
  Tape tape;
  tape.set_recording(false);
  TensorPtr logits = Decode(&tape, prefix_ids, mem_tensor, 0.0f, nullptr);
  const size_t last = logits->rows() - 1;
  const float* row = logits->value().data() + last * logits->cols();
  return std::vector<float>(row, row + logits->cols());
}

}  // namespace serd
