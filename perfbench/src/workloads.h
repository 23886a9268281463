// The benchmark's three workloads and the layer probes of the traced run.
// Every workload drives the library through its public API only.
#ifndef SERD_PERFBENCH_WORKLOADS_H_
#define SERD_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/serd.h"
#include "datagen/generators.h"
#include "obs/json.h"
#include "util.h"

namespace perfbench {

/// Data seed of every dataset analog the workloads generate. The real
/// datasets are fixed fixtures, as the paper's benchmark datasets are
/// (7 is the ROADMAP's reference `serd_cli --seed 7`); the workload seed
/// varies everything synthesis draws: training and synthesis seeds, the
/// served job mix and arrival times, and the probes' random inputs.
/// Varying the data too would make run-to-run spread mostly a property
/// of the generated tables (EM iterations, rejection counts) rather than
/// of the code under test.
inline constexpr uint64_t kDataSeed = 7;

/// Generated inputs of one pipeline: the real dataset analog plus the
/// background corpora/entities, seeded exactly as serd_cli seeds them.
struct PipelineInputs {
  serd::datagen::DatasetKind kind = serd::datagen::DatasetKind::kDblpAcm;
  double scale = 0.0;
  uint64_t data_seed = 0;
  serd::ERDataset real;
  std::vector<std::vector<std::string>> corpora;
  serd::Table background;
};

PipelineInputs MakeInputs(serd::datagen::DatasetKind kind, double scale,
                          uint64_t data_seed);

/// Everything a traced run's probes read: fixed inputs taken from the
/// workload (the real dataset, a fitted synthesizer, one release) plus the
/// seed their own random inputs derive from.
struct ProbeInputs {
  const PipelineInputs* inputs = nullptr;
  const serd::SerdSynthesizer* synth = nullptr;
  const serd::ERDataset* release = nullptr;
  uint64_t seed = 0;
};

/// Fixed-input calls into StringSynthesisBank, Gmm/ODistribution,
/// QgramIndex, EntityGan and the nn GEMM kernels (seq2seq.probe_*,
/// gmm.logpdf_ns, gmm.posterior_ns, block.probe_*, gan.disc_score_us,
/// nn.*).
void RunProbes(const ProbeInputs& probe, RunResult* result, Tracer* tracer);

/// Per-layer metrics read from a run manifest (observability on).
void AddManifestLayerMetrics(const serd::obs::Json& manifest,
                             RunResult* result);

/// |F1(RF trained on E_syn) - F1(RF trained on E_real)| on test pairs of
/// `real` (which also supplies E_real's training pairs), plus both F1
/// values; deterministic for fixed inputs.
struct MatcherQuality {
  double f1_real = 0.0;
  double f1_syn = 0.0;
  double gap = 0.0;
};
MatcherQuality EvaluateMatcherQuality(const serd::ERDataset& real,
                                      const serd::SerdSynthesizer& synth,
                                      const serd::ERDataset& release,
                                      uint64_t seed);

void RunReleaseCold(const RunConfig& config, RunResult* result,
                    Tracer* tracer);
void RunReleaseLarge(const RunConfig& config, RunResult* result,
                     Tracer* tracer);
void RunServeMixed(const RunConfig& config, RunResult* result,
                   Tracer* tracer);

}  // namespace perfbench

#endif  // SERD_PERFBENCH_WORKLOADS_H_
