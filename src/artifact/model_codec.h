#ifndef SERD_ARTIFACT_MODEL_CODEC_H_
#define SERD_ARTIFACT_MODEL_CODEC_H_

#include <memory>
#include <string>
#include <vector>

#include "artifact/bytes.h"
#include "common/status.h"
#include "gan/entity_gan.h"
#include "gmm/gmm.h"
#include "gmm/o_distribution.h"
#include "nn/tensor.h"
#include "seq2seq/model_bank.h"
#include "seq2seq/transformer.h"
#include "text/char_vocab.h"

namespace serd::artifact {

/// Binary codecs for every trained model the SERD offline phase produces
/// (DESIGN.md §5g). Invariants shared by all Encode/Decode pairs:
///  - encode(decode(encode(x))) == encode(x) byte-for-byte (floats travel
///    as raw IEEE-754 bits; container order is deterministic);
///  - a decoded model behaves bit-identically to the encoded one
///    (Gaussians restore their Cholesky factors verbatim instead of
///    re-factorizing);
///  - Decode never aborts or reads out of bounds on malformed input: all
///    structural fields are range-validated before any allocation or
///    model construction, and errors surface as descriptive Status.

// --- distributions -----------------------------------------------------

void EncodeGaussian(const MultivariateGaussian& g, ByteWriter* w);
Result<MultivariateGaussian> DecodeGaussian(ByteReader* r);

void EncodeGmm(const Gmm& gmm, ByteWriter* w);
Result<Gmm> DecodeGmm(ByteReader* r);

void EncodeODistribution(const ODistribution& o, ByteWriter* w);
Result<ODistribution> DecodeODistribution(ByteReader* r);

// --- neural models -----------------------------------------------------

/// Writes parameter tensors in registration order: count, then per tensor
/// rows/cols and raw float bits.
void EncodeParams(const std::vector<nn::TensorPtr>& params, ByteWriter* w);

/// Restores weights into an already constructed module's parameter
/// tensors, validating count and every shape against the freshly built
/// model (`what` labels errors). Gradients are untouched.
Status DecodeParamsInto(ByteReader* r,
                        const std::vector<nn::TensorPtr>& params,
                        const std::string& what);

void EncodeTransformer(const TransformerSeq2Seq& model, ByteWriter* w);
Result<std::unique_ptr<TransformerSeq2Seq>> DecodeTransformer(ByteReader* r);

/// Quantized decode weights (the optional "quant" artifact section):
/// per layer the 8 per-step projections in fixed order, each as logical
/// (unpadded) payload bytes plus fp32 scales/bias — the packed/padded form
/// is rebuilt at decode time, never trusted from the wire. `config` is
/// the model the set will attach to; every shape is validated against it
/// so a corrupted payload can never size-mismatch the decode buffers.
void EncodeQuantizedWeights(const QuantizedDecodeWeights& qw, ByteWriter* w);
Result<std::unique_ptr<QuantizedDecodeWeights>> DecodeQuantizedWeights(
    ByteReader* r, const TransformerConfig& config);

void EncodeEntityGan(const EntityGan& gan, ByteWriter* w);
Result<std::unique_ptr<EntityGan>> DecodeEntityGan(ByteReader* r);

// --- string synthesis bank ---------------------------------------------

void EncodeStringBank(const StringSynthesisBank& bank, ByteWriter* w);

/// Rebuilds a trained bank. `options` supplies the inference-time knobs
/// (num_candidates, temperature, metrics sink);
/// the trained structure — bucket count, vocabulary, per-bucket models —
/// comes from the payload and overrides `options.num_buckets`.
Result<std::unique_ptr<StringSynthesisBank>> DecodeStringBank(
    ByteReader* r, StringBankOptions options, StringSimFn sim);

}  // namespace serd::artifact

#endif  // SERD_ARTIFACT_MODEL_CODEC_H_
