// release-cold and release-large: what a serd_cli user waits for, from the
// Fit() call until the release directory is on disk (including the
// post-hoc EvaluateSyntheticJsd check serd_cli prints).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "data/dataset_io.h"
#include "eval/metrics.h"
#include "matcher/features.h"
#include "matcher/random_forest.h"
#include "runtime/sharded_rng.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using serd::ERDataset;
using serd::SerdOptions;
using serd::SerdSynthesizer;
using serd::datagen::DatasetKind;
using serd::obs::Json;

namespace {

/// Bench scale of the ROADMAP's historical reference configuration.
constexpr double kColdScale = 0.04;
/// The warm workload's dataset size: a DBLP-ACM analog whose cold set-up
/// plus several warm releases fit one run's time budget (at the paper's
/// scale 1.0 one warm release alone takes over a minute; see
/// perfbench/README.md).
constexpr double kLargeScale = 0.15;
constexpr int kLargeThreads = 2;
/// release-cold's set-up (data generation) takes well under a millisecond,
/// so one sample mostly measures which speed phase a shared host is in.
/// It is repeated this many times before every release — spreading the
/// samples over the whole run — and the median of all samples reported.
constexpr int kColdSetupRepeats = 21;
/// Every run makes at least two releases (see ReleaseSeed).
constexpr int kMinReleases = 2;

struct Release {
  std::unique_ptr<SerdSynthesizer> synth;
  ERDataset syn;
  serd::SerdReport report;
  Json manifest;
  double fit_s = 0.0;
  double synth_s = 0.0;
  double eval_s = 0.0;
  double total_s = 0.0;
  double jsd = 0.0;
  uint64_t digest = 0;
  std::string error;
};

/// One release: construct, Fit (cold or artifact restore), Synthesize,
/// EvaluateSyntheticJsd, SaveDataset — timed from outside.
Release RunRelease(const PipelineInputs& in, const SerdOptions& options,
                   const std::string& out_dir, Tracer* tracer, uint64_t job) {
  Release r;
  RemoveTree(out_dir);
  const bool warm = !options.model_dir.empty() &&
                    options.artifact_mode == SerdOptions::ArtifactMode::kLoad;
  ScopedSpan release_span(tracer, "release", job);
  const double t0 = Now();
  r.synth = std::make_unique<SerdSynthesizer>(in.real, options);
  {
    ScopedSpan span(tracer, warm ? "artifact.load" : "core.fit");
    serd::Status fit = r.synth->Fit(in.corpora, in.background);
    if (!fit.ok()) {
      r.error = "Fit: " + fit.ToString();
      return r;
    }
  }
  const double t1 = Now();
  {
    ScopedSpan span(tracer, "core.synthesize");
    auto syn = r.synth->Synthesize();
    if (!syn.ok()) {
      r.error = "Synthesize: " + syn.status().ToString();
      return r;
    }
    r.syn = std::move(syn).value();
  }
  const double t2 = Now();
  {
    ScopedSpan span(tracer, "gmm.eval_jsd");
    auto jsd = r.synth->EvaluateSyntheticJsd(r.syn);
    if (!jsd.ok()) {
      r.error = "EvaluateSyntheticJsd: " + jsd.status().ToString();
      return r;
    }
    r.jsd = jsd.value();
  }
  const double t3 = Now();
  {
    ScopedSpan span(tracer, "data.save_release");
    serd::Status saved = serd::SaveDataset(r.syn, out_dir);
    if (!saved.ok()) {
      r.error = "SaveDataset: " + saved.ToString();
      return r;
    }
  }
  const double t4 = Now();
  r.fit_s = t1 - t0;
  r.synth_s = t2 - t1;
  r.eval_s = t3 - t2;
  r.total_s = t4 - t0;
  r.report = r.synth->report();
  if (options.observability) r.manifest = r.synth->RunManifestJson();
  r.digest = DigestDirectory(out_dir);
  return r;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The per-release invariants every workload asserts.
void CheckRelease(const Release& r, const PipelineInputs& in,
                  const std::string& tag, RunResult* result) {
  result->Expect(tag + ".guard_not_exhausted", !r.report.guard_exhausted,
                 "guard_exhausted must be false");
  result->Expect(tag + ".sizes_equal_targets",
                 r.syn.a.size() == in.real.a.size() &&
                     r.syn.b.size() == in.real.b.size(),
                 "|A_syn|=" + std::to_string(r.syn.a.size()) + " |B_syn|=" +
                     std::to_string(r.syn.b.size()));
  result->Expect(tag + ".s3_block_recall_is_1",
                 r.report.s3_block_recall == 1.0,
                 "s3_block_recall=" + FormatDouble(r.report.s3_block_recall));
}

struct ReleaseWorkload {
  SerdOptions options;
  std::string out_prefix;
  /// Optional set-up repeated (and timed by itself) before every release.
  std::function<void()> setup;
  /// Digest of the cold set-up release (release-large); every release
  /// with the workload seed must reproduce it. 0 = no cold reference.
  uint64_t cold_digest = 0;
};

/// Synthesis seed of release `j`: the workload seed first, then fresh
/// seeds derived from it, so a run's median averages over several
/// synthesis draws. Without a cold reference, release 1 repeats release
/// 0's seed so that every run checks that bytes repeat. The traced run
/// pairs every release (one traced, one untraced per seed) instead.
uint64_t ReleaseSeed(uint64_t workload_seed, int j, bool paired,
                     bool repeat_first) {
  const int draw = paired ? j / 2 : repeat_first ? std::max(0, j - 1) : j;
  return draw == 0 ? workload_seed
                   : serd::runtime::ShardedRng::DeriveSeed(workload_seed,
                                                           draw);
}

/// The measured loop shared by both release workloads: releases until
/// `seconds` elapse (at least kMinReleases), seeded by ReleaseSeed. In the
/// traced run each pair is one traced release (observability on, spans
/// recorded) and one untraced, so the repeat check also proves that
/// observability leaves the bytes alone and the pair gives the tracing
/// overhead.
void MeasureReleases(const RunConfig& config, const PipelineInputs& in,
                     const ReleaseWorkload& w, RunResult* result,
                     Tracer* tracer) {
  RunResult::Phase* phase = result->AddPhase("release");
  std::vector<double> total, synth, fit, traced_total;
  std::vector<uint64_t> digests;
  Release last_traced;
  Release first;
  const double start = Now();
  // A cold reference already checks the workload seed's release.
  auto seed_of = [&](int j) {
    return ReleaseSeed(config.seed, j, config.trace, w.cold_digest == 0);
  };
  int n = 0;
  while (n < kMinReleases || Now() - start < config.seconds) {
    if (w.setup) w.setup();
    const bool traced = config.trace && n % 2 == 0;
    SerdOptions options = w.options;
    options.seed = seed_of(n);
    options.observability = traced;
    Release r = RunRelease(in, options,
                           w.out_prefix + "-" + std::to_string(n),
                           traced ? tracer : nullptr, n + 1);
    ++phase->attempted;
    ++n;
    if (!r.error.empty()) {
      ++phase->failed;
      result->Expect("release.ok", false, r.error);
      break;
    }
    ++phase->succeeded;
    digests.push_back(r.digest);
    if (n % 2 == 0 && options.seed == seed_of(n - 2)) {
      result->Expect("release_repeats", r.digest == digests[n - 2],
                     "digest " + Hex(r.digest) + " vs " +
                         Hex(digests[n - 2]));
    }
    if (w.cold_digest != 0 && options.seed == config.seed) {
      result->Expect("warm_digest_equals_cold", r.digest == w.cold_digest,
                     "digest " + Hex(r.digest) + " vs cold " +
                         Hex(w.cold_digest));
    }
    CheckRelease(r, in, "release", result);
    (traced ? traced_total : total).push_back(r.total_s);
    result->Note(traced ? "traced_release" : "release",
                 "seed=" + std::to_string(options.seed) +
                     " digest=" + Hex(r.digest) +
                     " total=" + FormatDouble(r.total_s) + "s fit=" +
                     FormatDouble(r.fit_s) + "s synth=" +
                     FormatDouble(r.synth_s) + "s eval_jsd=" +
                     FormatDouble(r.eval_s) + "s");
    if (traced) {
      last_traced = std::move(r);
    } else {
      synth.push_back(r.synth_s);
      fit.push_back(r.fit_s);
      if (first.synth == nullptr) first = std::move(r);
    }
  }
  const double wall = Now() - start;
  result->Note("releases", static_cast<double>(n));
  result->Note("input_a", static_cast<double>(in.real.a.size()));
  result->Note("input_b", static_cast<double>(in.real.b.size()));
  result->Note("input_matches", static_cast<double>(in.real.matches.size()));
  if (first.synth == nullptr && last_traced.synth == nullptr) return;
  const Release& any = first.synth != nullptr ? first : last_traced;

  if (!config.trace) {
    result->Set("release_s", Median(total), "s");
    result->Set("releases_per_s", static_cast<double>(n) / wall, "1/s");
    result->Set("dp_epsilon", any.report.mean_bank_epsilon, "epsilon");
    MatcherQuality q =
        EvaluateMatcherQuality(in.real, *any.synth, any.syn, config.seed);
    result->Set("f1_syn", q.f1_syn, "f1");
    result->Note("f1_real", q.f1_real);
    result->Note("f1_gap", q.gap);
    result->Note("fit_s", Median(fit));
    result->Note("synth_s", Median(synth));
    result->Note("syn_jsd", any.jsd);
    result->Note("release_samples", static_cast<double>(total.size()));
    return;
  }

  // Traced run: per-layer numbers from the manifest of a traced release,
  // the benchmark's spans, the probes, and traced-vs-untraced overhead.
  const Release& t = last_traced;
  AddManifestLayerMetrics(t.manifest, result);
  const bool warm = !w.options.model_dir.empty();
  result->Set("core.fit_s", t.fit_s, "s");
  if (warm) result->Set("artifact.load_s", t.fit_s, "s");
  result->Set("gmm.eval_jsd_s", t.eval_s, "s");
  result->Set("core.synthesize_s", t.synth_s, "s");
  if (!total.empty()) {
    result->Set("obs.trace_overhead_frac",
                Median(traced_total) / Median(total) - 1.0, "ratio");
    result->Note("obs.trace_overhead_base",
                 FormatDouble(Median(traced_total)) + "s traced vs " +
                     FormatDouble(Median(total)) + "s untraced");
  }
  MatcherQuality q =
      EvaluateMatcherQuality(in.real, *t.synth, t.syn, config.seed);
  result->Set("quality.syn_jsd", t.jsd, "jsd");
  result->Set("quality.f1_gap", q.gap, "f1");
  result->Set("quality.f1_real", q.f1_real, "f1");
  ProbeInputs probe;
  probe.inputs = &in;
  probe.synth = t.synth.get();
  probe.release = &t.syn;
  probe.seed = config.seed;
  RunProbes(probe, result, tracer);
}

/// serd_cli-equivalent options (serve::DefaultJobOptions) on one thread.
SerdOptions CliOptions(uint64_t seed, int threads) {
  SerdOptions options = serd::serve::DefaultJobOptions();
  options.seed = seed;
  options.threads = threads;
  return options;
}

}  // namespace

PipelineInputs MakeInputs(DatasetKind kind, double scale, uint64_t data_seed) {
  PipelineInputs in;
  in.kind = kind;
  in.scale = scale;
  in.data_seed = data_seed;
  in.real = serd::datagen::Generate(kind, {.seed = data_seed, .scale = scale});
  size_t i = 0;
  for (const auto& col : in.real.schema().columns()) {
    if (col.type != serd::ColumnType::kText) continue;
    in.corpora.push_back(serd::datagen::BackgroundCorpus(
        kind, col.name, 120, data_seed * 31 + i++));
  }
  in.background =
      serd::datagen::BackgroundEntities(kind, 100, data_seed * 7 + 1);
  return in;
}

MatcherQuality EvaluateMatcherQuality(const ERDataset& real,
                                      const SerdSynthesizer& synth,
                                      const ERDataset& release,
                                      uint64_t seed) {
  auto spec = serd::SimilaritySpec::FromTables(real.schema(),
                                               {&real.a, &real.b});
  serd::FeatureExtractor fx(spec);
  serd::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  auto real_pairs = serd::BuildLabeledPairs(real, 6.0, &rng);
  serd::LabeledPairSet real_train, real_test;
  serd::SplitPairs(real_pairs, 0.4, &rng, &real_train, &real_test);
  auto syn_pairs = synth.LabelPairs(release, 6.0, &rng);
  serd::RandomForest m_real, m_syn;
  MatcherQuality q;
  q.f1_real = serd::TrainAndEvaluate(&m_real, fx, real, real_train, fx, real,
                                     real_test)
                  .f1;
  q.f1_syn = serd::TrainAndEvaluate(&m_syn, fx, release, syn_pairs, fx, real,
                                    real_test)
                 .f1;
  q.gap = std::fabs(q.f1_syn - q.f1_real);
  return q;
}

void RunReleaseCold(const RunConfig& config, RunResult* result,
                    Tracer* tracer) {
  // Set-up: data generation only (training is part of every release).
  // Generation is deterministic; the repetitions before later releases
  // regenerate identical inputs into a scratch copy, because the kept
  // synthesizers point into `in`.
  std::vector<double> setups;
  auto generate = [&setups](PipelineInputs* out) {
    for (int i = 0; i < kColdSetupRepeats; ++i) {
      const double t0 = Now();
      *out = MakeInputs(DatasetKind::kDblpAcm, kColdScale, kDataSeed);
      setups.push_back(Now() - t0);
    }
  };
  PipelineInputs in;
  generate(&in);

  ReleaseWorkload w;
  w.options = CliOptions(config.seed, 1);
  w.options.blocking = SerdOptions::BlockingMode::kOff;  // exact S3
  w.out_prefix = config.work_dir + "/release";
  w.setup = [&generate] {
    PipelineInputs scratch;
    generate(&scratch);
  };
  MeasureReleases(config, in, w, result, tracer);
  result->Set(config.trace ? "datagen.generate_s" : "setup_s",
              Median(setups), "s");
}

void RunReleaseLarge(const RunConfig& config, RunResult* result,
                     Tracer* tracer) {
  // Set-up: generate, train cold once, save the artifact, and keep the
  // cold release's digest for the warm-equals-cold invariant.
  const double t0 = Now();
  PipelineInputs in =
      MakeInputs(DatasetKind::kDblpAcm, kLargeScale, kDataSeed);
  const double generate_s = Now() - t0;
  SerdOptions options = CliOptions(config.seed, kLargeThreads);
  options.blocking = SerdOptions::BlockingMode::kQgram;
  options.max_label_pairs = 0;
  const std::string model_dir = config.work_dir + "/model";
  Release cold;
  double save_models_s = 0.0;
  {
    ScopedSpan span(tracer, "setup.cold_train");
    cold = RunRelease(in, options, config.work_dir + "/cold", nullptr, 0);
    if (cold.error.empty()) {
      const double s0 = Now();
      serd::Status saved = cold.synth->SaveModels(model_dir);
      save_models_s = Now() - s0;
      if (!saved.ok()) cold.error = "SaveModels: " + saved.ToString();
    }
  }
  const double setup_s = Now() - t0;
  RunResult::Phase* setup_phase = result->AddPhase("setup");
  ++setup_phase->attempted;
  if (!cold.error.empty()) {
    ++setup_phase->failed;
    result->Expect("setup.cold_release", false, cold.error);
    return;
  }
  ++setup_phase->succeeded;
  CheckRelease(cold, in, "setup", result);
  const std::string artifact =
      model_dir + "/" + SerdSynthesizer::kModelFileName;
  if (!config.trace) {
    result->Set("setup_s", setup_s, "s");
  } else {
    result->Set("datagen.generate_s", generate_s, "s");
    result->Set("artifact.save_s", save_models_s, "s");
    result->Set("artifact.bytes", static_cast<double>(FileBytes(artifact)),
                "bytes");
  }
  result->Note("cold_release_s", cold.total_s);
  result->Note("cold_eval_jsd_s", cold.eval_s);
  cold.synth.reset();

  ReleaseWorkload w;
  w.options = options;
  w.options.model_dir = model_dir;
  w.options.artifact_mode = SerdOptions::ArtifactMode::kLoad;
  w.out_prefix = config.work_dir + "/release";
  w.cold_digest = cold.digest;
  MeasureReleases(config, in, w, result, tracer);
}

void AddManifestLayerMetrics(const Json& manifest, RunResult* result) {
  if (!manifest.is_object() || !manifest.Has("report")) return;
  const Json& report = manifest.at("report");
  auto rep = [&](const char* key) { return report.at(key).AsNumber(); };
  const Json empty = Json::Object();
  const Json& metrics = manifest.Has("metrics") ? manifest.at("metrics")
                                                : empty;
  auto section = [&](const char* key) -> const Json& {
    return metrics.Has(key) ? metrics.at(key) : empty;
  };
  const Json& hist = section("histograms");
  const Json& counters = section("counters");
  auto hsum = [&](const char* key) {
    return hist.Has(key) ? hist.at(key).at("sum").AsNumber() : 0.0;
  };
  auto count = [&](const char* key) {
    return counters.Has(key) ? counters.at(key).AsNumber() : 0.0;
  };

  const double bank_train_s = hsum("offline.string_banks");
  const double examples = count("seq2seq.examples_total");
  result->Set("dp.bank_train_s", bank_train_s, "s");
  result->Set("dp.examples_per_s",
              bank_train_s > 0.0 ? examples / bank_train_s : 0.0, "1/s");
  result->Note("dp.examples", examples);
  result->Set("seq2seq.decode_steps", rep("decode_steps"), "count");
  const double hits = rep("encoder_cache_hits");
  result->SetRatio("seq2seq.encoder_cache_hit_ratio", hits,
                   hits + rep("encoder_cache_misses"));
  result->Set("gmm.s1_fit_s", hsum("s1.distributions"), "s");
  result->Set("gmm.em_iterations", count("gmm.em_iterations"), "count");
  const double s2_jsd_s = hsum("s2.jsd_seconds");
  result->Set("gmm.s2_jsd_s", s2_jsd_s, "s");
  result->Set("gmm.jsd_evaluations", rep("jsd_evaluations"), "count");
  const double loop_s = hsum("s2.loop");
  result->Set("core.s2_loop_s", loop_s, "s");
  const double accepted = rep("accepted_entities");
  const double rejected_disc = rep("rejected_by_discriminator");
  const double attempts =
      accepted + rejected_disc + rep("rejected_by_distribution");
  result->SetRatio("core.s2_accept_ratio", accepted, attempts);
  result->Set("core.s2_forced_accepts", rep("forced_accepts"), "count");
  result->Set("core.s3_label_s", hsum("s3.label"), "s");
  result->Set("core.s3_scored_pairs", rep("s3_scored_pairs"), "count");
  // The manifest's only timed child of s2.loop is the JSD estimate.
  result->SetRatio("core.s2_attributed_frac", s2_jsd_s, loop_s);
  result->Set("block.index_s", hsum("s3.block_index"), "s");
  result->SetRatio("block.candidate_ratio", rep("s3_candidate_pairs"),
                   rep("s3_total_pairs"));
  result->SetRatio("gan.reject_ratio", rejected_disc, attempts);
  result->Set("runtime.parallel_speedup", rep("parallel_speedup"), "x");
}

}  // namespace perfbench
