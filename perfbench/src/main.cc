// SERD benchmark runner.
//
//   serd_perfbench --workload release-cold|release-large|serve-mixed
//                  --seed N --seconds S --trace 0|1
//                  [--rev GIT_REV] [--source-digest HEX]
//
// --trace 0 measures with observability off and prints the end-to-end
// metrics; --trace 1 turns SerdOptions::observability on, records the
// benchmark's own spans around every library call, runs the layer probes,
// writes a Chrome trace-event file and prints the per-layer metrics. The
// last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Everything before it is commented context ("# ..."): provenance,
// accounting per phase, correctness checks, ratio bases, span self times.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every workload with --trace 0.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"release_s", "s"},
    {"releases_per_s", "1/s"}, {"f1_syn", "f1"},
    {"dp_epsilon", "epsilon"}, {"peak_rss_mb", "MiB"},
    {"success_rate", "ratio"},
};

/// Printed by every workload with --trace 1. A layer a workload does not
/// exercise reports 0 (no work done); perfbench/README.md lists which.
const MetricSpec kPerLayer[] = {
    {"dp.bank_train_s", "s"},
    {"dp.examples_per_s", "1/s"},
    {"seq2seq.probe_train_s", "s"},
    {"seq2seq.decode_steps", "count"},
    {"seq2seq.encoder_cache_hit_ratio", "ratio"},
    {"seq2seq.probe_synth_ms", "ms"},
    {"nn.sgemm_gflops", "GFLOP/s"},
    {"nn.gemm_int8_gops", "GOP/s"},
    {"gmm.s1_fit_s", "s"},
    {"gmm.em_iterations", "count"},
    {"gmm.s2_jsd_s", "s"},
    {"gmm.jsd_evaluations", "count"},
    {"gmm.eval_jsd_s", "s"},
    {"gmm.logpdf_ns", "ns"},
    {"gmm.posterior_ns", "ns"},
    {"core.fit_s", "s"},
    {"core.synthesize_s", "s"},
    {"core.s2_loop_s", "s"},
    {"core.s2_accept_ratio", "ratio"},
    {"core.s2_forced_accepts", "count"},
    {"core.s3_label_s", "s"},
    {"core.s3_scored_pairs", "count"},
    {"core.s2_attributed_frac", "ratio"},
    {"block.index_s", "s"},
    {"block.candidate_ratio", "ratio"},
    {"block.probe_build_s", "s"},
    {"block.probe_candidates_s", "s"},
    {"gan.disc_score_us", "us"},
    {"gan.reject_ratio", "ratio"},
    {"artifact.load_s", "s"},
    {"artifact.save_s", "s"},
    {"artifact.bytes", "bytes"},
    {"serve.job_tail_s", "s"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_wait_tail_s", "s"},
    {"serve.run_p50_s", "s"},
    {"serve.wire_rtt_p50_ms", "ms"},
    {"serve.hot_tenant_tail_s", "s"},
    {"serve.other_tenant_tail_s", "s"},
    {"serve.refused", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.gen_lag_tail_ms", "ms"},
    {"pool.hit_ratio", "ratio"},
    {"pool.load_s", "s"},
    {"runtime.parallel_speedup", "x"},
    {"obs.trace_overhead_frac", "ratio"},
    {"datagen.generate_s", "s"},
    {"quality.syn_jsd", "jsd"},
    {"quality.f1_gap", "f1"},
    {"quality.f1_real", "f1"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: serd_perfbench --workload "
               "release-cold|release-large|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--rev REV] [--source-digest HEX]\n");
  return 2;
}

const char* BuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string rev = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value);
    } else if (arg == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (arg == "--rev") {
      rev = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return Usage();
    }
  }
  void (*run)(const RunConfig&, RunResult*, Tracer*) = nullptr;
  if (config.workload == "release-cold") run = RunReleaseCold;
  if (config.workload == "release-large") run = RunReleaseLarge;
  if (config.workload == "serve-mixed") run = RunServeMixed;
  if (run == nullptr || config.seconds <= 0.0) return Usage();

  // Numbers from an assert-enabled build measure the asserts, not the
  // library: refuse them, as the repository's bench harnesses do.
  if (std::strcmp(BuildType(), "release") != 0) {
    std::fprintf(stderr, "serd_perfbench: refusing a %s build\n",
                 BuildType());
    return 3;
  }
  config.work_dir = ".bench_build/work/" + config.workload + "-" +
                    std::to_string(config.seed) + "-" +
                    std::to_string(::getpid());
  RemoveTree(config.work_dir);
  std::filesystem::create_directories(config.work_dir);

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("# provenance workload=%s seed=%llu seconds=%g trace=%d "
              "rev=%s source_digest=%s build_type=%s hardware_threads=%u\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, rev.c_str(), source_digest.c_str(),
              BuildType(), hardware_threads);

  Tracer tracer(config.trace);
  RunResult result;
  run(config, &result, &tracer);
  RemoveTree(config.work_dir);

  if (!config.trace) {
    const double attempted = static_cast<double>(result.attempted());
    result.Set("success_rate",
               attempted > 0
                   ? (attempted - static_cast<double>(result.failed())) /
                         attempted
                   : 0.0,
               "ratio");
    result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  }

  for (const auto& [key, value] : result.notes) {
    std::printf("# note %s=%s\n", key.c_str(), value.c_str());
  }
  for (const RunResult::Phase& p : result.phases) {
    std::printf("# ops %s attempted=%ld succeeded=%ld failed=%ld\n",
                p.name.c_str(), p.attempted, p.succeeded, p.failed);
  }
  // Checks are many and mostly repeated; print each failure and a tally.
  long passed = 0;
  for (const RunResult::Check& c : result.checks) {
    if (c.ok) {
      ++passed;
    } else {
      std::printf("# CHECK FAILED %s: %s\n", c.name.c_str(),
                  c.detail.c_str());
    }
  }
  std::printf("# checks passed=%ld of %zu\n", passed, result.checks.size());

  if (config.trace) {
    const auto self = tracer.SelfSeconds();
    const auto total = tracer.TotalSeconds();
    for (const auto& [name, s] : self) {
      std::printf("# span %-28s self=%.6fs total=%.6fs\n", name.c_str(), s,
                  total.at(name));
    }
    const std::string trace_dir = ".bench_build/traces";
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + config.workload + "-seed" +
                             std::to_string(config.seed) + ".json";
    std::ofstream(path) << tracer.ChromeTraceJson();
    std::printf("# trace written to %s\n", path.c_str());
  }

  // Select exactly the metric set of this mode, in canonical order.
  std::vector<RunResult::Metric> out;
  bool complete = true;
  auto emit = [&](const MetricSpec* specs, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const RunResult::Metric* found = nullptr;
      for (const auto& m : result.metrics) {
        if (m.name == specs[i].name) found = &m;
      }
      if (found != nullptr) {
        out.push_back({specs[i].name, found->value, specs[i].unit});
      } else if (config.trace) {
        out.push_back({specs[i].name, 0.0, specs[i].unit});
      } else {
        std::printf("# MISSING end-to-end metric %s\n", specs[i].name);
        complete = false;
      }
    }
  };
  if (config.trace) {
    emit(kPerLayer, sizeof(kPerLayer) / sizeof(kPerLayer[0]));
  } else {
    emit(kEndToEnd, sizeof(kEndToEnd) / sizeof(kEndToEnd[0]));
  }
  for (const auto& m : out) {
    std::printf("# metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const bool correct = result.correct() && complete;
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":{",
              correct ? "true" : "false", result.attempted(),
              result.failed());
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) std::putchar(',');
    PrintJsonString(out[i].name);
    std::printf(":{\"value\":%s,\"unit\":",
                FormatDouble(out[i].value).c_str());
    PrintJsonString(out[i].unit);
    std::putchar('}');
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
