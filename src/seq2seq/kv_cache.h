#ifndef SERD_SEQ2SEQ_KV_CACHE_H_
#define SERD_SEQ2SEQ_KV_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace serd {

class TransformerSeq2Seq;

/// Encoder output captured once per (model, source string) and shared by
/// every candidate decode of that source (TransformerSeq2Seq::
/// GenerateBatchLanes) and by rejection-loop retries via the per-thread
/// cache in StringSynthesisBank. Besides the raw encoder memory it carries
/// the cross-attention key/value projections of every decoder layer, which
/// depend only on the memory and therefore never change across decode
/// steps or candidates. Immutable after EncodeMemory() returns (always
/// handled as EncoderMemoryPtr = shared_ptr<const ...>), so sharing across
/// threads is safe.
struct EncoderMemory {
  struct CrossKv {
    std::vector<float> k;  ///< [mem_len, d_model] = wk(memory)
    std::vector<float> v;  ///< [mem_len, d_model] = wv(memory)
  };

  std::uint64_t model_uid = 0;  ///< TransformerSeq2Seq::uid() that built it
  int mem_len = 0;              ///< encoded (clamped) source length
  int d_model = 0;
  int src_len = 0;  ///< unclamped source id count; drives the length cap
  std::vector<float> values;    ///< [mem_len, d_model] encoder output
  std::vector<CrossKv> cross;   ///< one entry per decoder layer
};

using EncoderMemoryPtr = std::shared_ptr<const EncoderMemory>;

/// Decode-step accounting for the obs counters (s2.decode_steps /
/// s2.decode_cached_steps / s2.decode_quantized_steps). One "step" = one
/// next-token logits row sampled for a candidate that reached the caller.
/// Rows a lockstep decode computed for lanes an early stop abandoned are
/// not counted, so the lockstep path and the full re-decode reference
/// report equal counts for equal token streams.
struct GenerateStats {
  long steps = 0;            ///< total decode steps taken
  long cached_steps = 0;     ///< steps served by the KV-cached path
  long quantized_steps = 0;  ///< cached steps whose projections ran int8/bf16
};

/// Per-layer self-attention K/V rows for in-flight decodes. Row t of
/// layer l holds wk/wv(LN1(x_t)) exactly as the full re-decode would
/// compute them for position t — each row is written once, when its token
/// is fed, and never touched again (causal masking is implicit: only
/// positions <= t exist in the cache at step t). The cache holds
/// `num_lanes` independent candidate decodes side by side (lane-major:
/// lane c's rows live at offset c * capacity * d_model), one lane per
/// BatchedDecoder candidate. All lanes share the length counter because
/// lanes only ever advance together (a retired lane's rows simply stop
/// being read).
class KvCache {
 public:
  /// Sizes the buffers for `num_layers` layers of `num_lanes` lanes of
  /// `capacity` rows of `d_model` floats and rewinds to length 0.
  void Reset(int num_layers, int d_model, int capacity, int num_lanes);

  int len() const { return len_; }
  void Advance() { ++len_; }

  float* k(int layer, int lane) {
    return layers_[layer].k.data() + static_cast<std::size_t>(lane) * lane_stride_;
  }
  float* v(int layer, int lane) {
    return layers_[layer].v.data() + static_cast<std::size_t>(lane) * lane_stride_;
  }

 private:
  struct LayerKv {
    std::vector<float> k;  ///< [num_lanes, capacity, d_model]
    std::vector<float> v;
  };
  std::vector<LayerKv> layers_;
  std::size_t lane_stride_ = 0;  ///< capacity * d_model floats per lane
  int len_ = 0;
};

/// Token-lockstep batched decoder: up to `num_lanes` candidate lanes over
/// one encoder memory advance one position per Step(), with each layer's
/// LayerNorm, Q/K/V/O projections, cross-attention and FFN running as a
/// single M-row kernel call over all live lanes. Logits are bit-identical
/// to TransformerSeq2Seq's full re-decode at every step, lane for lane:
/// every kernel involved either works row-independently (LayerNormRows,
/// SoftmaxRows, per-row bias Add) or accumulates each output element in
/// its own sequential chain over k regardless of how many rows are
/// computed at once (the GEMM driver), and the full path's causal-mask
/// softmax zeros exactly the positions the cache never stores (DESIGN.md
/// sections 5h and 5k). A 1-lane decoder is the plain incremental decode.
///
/// Lanes all start at position 0 and retire permanently (EOS / length cap /
/// early stop); callers pass the currently-live lane subset to each Step(),
/// so the batch shrinks as candidates finish.
class BatchedDecoder {
 public:
  /// Binds to `model` (not owned; must outlive the decoder) and the
  /// encoder memory every lane attends over, which must come from `model`.
  BatchedDecoder(const TransformerSeq2Seq* model, EncoderMemoryPtr memory,
                 int num_lanes);

  /// Feeds tokens[i] to lane lanes[i] at the shared next position and
  /// returns the [lanes.size(), vocab_size] logits matrix (row i = lane
  /// lanes[i]), valid until the next Step(). `lanes` must be a subset of
  /// [0, num_lanes) with each lane at the shared position — i.e. present
  /// in every prior Step(). Checks that the position stays below
  /// config().max_len.
  const float* Step(const std::vector<int>& lanes,
                    const std::vector<int>& tokens);

  int num_lanes() const { return num_lanes_; }

 private:
  const TransformerSeq2Seq* model_;
  EncoderMemoryPtr memory_;
  int num_lanes_;
  KvCache cache_;
  // [num_lanes, *] batched scratch, reused across steps; live rows are
  // packed to the front (row i of a Step belongs to lane lanes[i]).
  std::vector<float> x_;       // [n, d] residual stream
  std::vector<float> normed_;  // [n, d]
  std::vector<float> q_;       // [n, d]
  std::vector<float> knew_;    // [n, d] freshly projected K rows
  std::vector<float> vnew_;    // [n, d] freshly projected V rows
  std::vector<float> concat_;  // [n, d] per-head attention outputs
  std::vector<float> attn_;    // [n, d] output-projected attention
  std::vector<float> h_;       // [n, d] post-self-attention residual
  std::vector<float> scores_;  // [n, max(max_len, mem_len)]
  std::vector<float> mix_;     // [n, head_dim] one head's context rows
  std::vector<float> ff_;      // [n, ffn_dim]
  std::vector<float> logits_;  // [n, vocab_size]
};

}  // namespace serd

#endif  // SERD_SEQ2SEQ_KV_CACHE_H_
