// serve-mixed: an in-process SerdServer driven over loopback TCP by
// ServeClient. Phase A is an open loop (Poisson arrivals at a fixed rate,
// four tenants with one hot tenant, 10% int8 jobs, cheap stats/manifest/
// reload requests interleaved); Phase B submits a burst and times the
// drain. A sample of served releases is replayed through a direct
// SerdSynthesizer and must match byte for byte.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset_io.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {

using serd::ERDataset;
using serd::SerdOptions;
using serd::SerdSynthesizer;
using serd::datagen::DatasetKind;
using serd::obs::Json;

namespace {

/// Phase A arrival rate (jobs/s): 60% of the median Phase B drain rate
/// of this job mix with 2 workers (2.7 jobs/s over ten runs on a
/// 4-hardware-thread host), kept fixed so every run offers the same load.
constexpr double kArrivalRate = 1.6;
constexpr int kWorkers = 2;
/// Tenants t0..t3; t0 is the hot tenant.
constexpr int kTenants = 4;
/// Latency limit each Phase A job carries as deadline_ms.
constexpr int kDeadlineMs = 8000;
/// Phase B: jobs per burst (two full blocks of the job mix, in block
/// order: the drain time then depends on the code, not on how a shuffle
/// happened to queue the hot tenant's serialized jobs) and their
/// (generous) deadline.
constexpr int kBurstJobs = 40;
constexpr int kBurstDeadlineMs = 60000;
/// Health round trips timed for the wire RTT.
constexpr int kHealthPings = 50;

struct ServedDataset {
  const char* name;  ///< wire name (datagen::ParseDatasetKind)
  DatasetKind kind;
  double scale;
  std::string model_dir;
  PipelineInputs inputs;
  double epsilon = 0.0;
};

struct Job {
  int index = 0;
  std::string tenant;
  int dataset = 0;
  bool int8 = false;
  std::string seed_key;
  int deadline_ms = 0;
  double scheduled = 0.0;  ///< due send time
  double sent = 0.0;       ///< actual send time
  double acked = 0.0;      ///< admission response received
  uint64_t id = 0;
  bool admitted = false;
  Json status;             ///< terminal JobStatus JSON
  std::string out_dir;
};

Json JobRequest(const Job& job, const ServedDataset& ds, uint64_t data_seed) {
  Json req = Json::Object();
  req.Set("verb", "synthesize");
  req.Set("dataset", ds.name);
  req.Set("scale", ds.scale);
  req.Set("data_seed", data_seed);
  req.Set("tenant", job.tenant);
  req.Set("model_dir", ds.model_dir);
  req.Set("artifact_mode", "load");
  req.Set("decode_precision", job.int8 ? "int8" : "fp32");
  req.Set("seed_key", job.seed_key);
  req.Set("deadline_ms", job.deadline_ms);
  req.Set("out", job.out_dir);
  req.Set("wait", false);
  return req;
}

Json EntryRequest(const char* verb, const std::string& tenant,
                  const ServedDataset& ds, uint64_t data_seed, bool int8) {
  Json req = Json::Object();
  req.Set("verb", verb);
  req.Set("dataset", ds.name);
  req.Set("scale", ds.scale);
  req.Set("data_seed", data_seed);
  req.Set("tenant", tenant);
  req.Set("model_dir", ds.model_dir);
  req.Set("artifact_mode", "load");
  req.Set("decode_precision", int8 ? "int8" : "fp32");
  return req;
}

bool ResponseOk(const serd::Result<Json>& r) {
  return r.ok() && r->Has("ok") && r->at("ok").AsBool();
}

/// Waits for terminal statuses in submission order on its own connection,
/// so the generator never blocks on a reply.
class Waiter {
 public:
  explicit Waiter(int port) {
    status_ = client_.Connect(port);
    thread_ = std::thread([this] { Loop(); });
  }
  ~Waiter() { Finish(); }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  void Push(Job* job) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(job);
    cv_.notify_all();
  }
  /// Blocks until every pushed job has its terminal status.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  }
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
  }
  bool ok() const { return status_.ok(); }

 private:
  void Loop() {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        job = queue_.front();
        queue_.pop_front();
        busy_ = true;
      }
      Json req = Json::Object();
      req.Set("verb", "job");
      req.Set("id", job->id);
      req.Set("wait", true);
      serd::Result<Json> r = client_.Call(req);
      if (r.ok()) job->status = std::move(r).value();
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      idle_cv_.notify_all();
    }
  }

  serd::serve::ServeClient client_;
  serd::Status status_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Job*> queue_;  ///< guarded by mu_
  bool busy_ = false;       ///< guarded by mu_
  bool done_ = false;       ///< guarded by mu_
  std::thread thread_;      ///< last: runs Loop() over the members above
};

double StatusNumber(const Job& job, const char* key) {
  return job.status.is_object() && job.status.Has(key)
             ? job.status.at(key).AsNumber()
             : 0.0;
}

bool JobDone(const Job& job) {
  return job.status.is_object() && job.status.Has("state") &&
         job.status.at("state").AsString() == "done";
}

/// Terminal time as the server saw it: admission ack plus the server's
/// own queue and run intervals. Unlike the waiter's receipt time it does
/// not inherit head-of-line blocking from the in-order waiter.
double TerminalTime(const Job& job) {
  return job.acked + StatusNumber(job, "queue_seconds") +
         StatusNumber(job, "run_seconds");
}

double StatsCounter(const Json& stats, const char* name) {
  if (!stats.Has("metrics")) return 0.0;
  const Json& m = stats.at("metrics");
  if (!m.Has("counters") || !m.at("counters").Has(name)) return 0.0;
  return m.at("counters").at(name).AsNumber();
}

double StatsHistSum(const Json& stats, const char* name) {
  if (!stats.Has("metrics")) return 0.0;
  const Json& m = stats.at("metrics");
  if (!m.Has("histograms") || !m.at("histograms").Has(name)) return 0.0;
  return m.at("histograms").at(name).at("sum").AsNumber();
}

}  // namespace

void RunServeMixed(const RunConfig& config, RunResult* result,
                   Tracer* tracer) {
  const uint64_t data_seed = kDataSeed;
  const double setup_start = Now();

  // --- Set-up: train both artifacts cold, start the server, pre-warm
  // every (tenant, dataset, precision) pool entry.
  std::vector<ServedDataset> datasets;
  datasets.push_back({"dblp-acm", DatasetKind::kDblpAcm, 0.02, "", {}, 0.0});
  datasets.push_back(
      {"restaurant", DatasetKind::kRestaurant, 0.05, "", {}, 0.0});
  RunResult::Phase* setup_phase = result->AddPhase("setup");
  double generate_s = 0.0;
  double save_s = 0.0;
  uint64_t artifact_bytes = 0;
  for (size_t d = 0; d < datasets.size(); ++d) {
    ServedDataset& ds = datasets[d];
    ScopedSpan span(tracer, "setup.train_artifact");
    const double g0 = Now();
    ds.inputs = MakeInputs(ds.kind, ds.scale, data_seed);
    generate_s += Now() - g0;
    ds.model_dir = config.work_dir + "/model-" + std::to_string(d);
    SerdOptions options = serd::serve::DefaultJobOptions();
    options.seed = config.seed;
    options.threads = 1;
    SerdSynthesizer synth(ds.inputs.real, options);
    ++setup_phase->attempted;
    serd::Status fit = synth.Fit(ds.inputs.corpora, ds.inputs.background);
    const double s0 = Now();
    serd::Status saved = fit.ok() ? synth.SaveModels(ds.model_dir) : fit;
    save_s += Now() - s0;
    if (!saved.ok()) {
      ++setup_phase->failed;
      result->Expect("setup.train_artifact", false, saved.ToString());
      return;
    }
    ++setup_phase->succeeded;
    ds.epsilon = synth.report().mean_bank_epsilon;
    artifact_bytes += FileBytes(ds.model_dir + "/" +
                                SerdSynthesizer::kModelFileName);
  }

  serd::serve::ServerOptions server_options;
  server_options.workers = kWorkers;
  server_options.pool_capacity = kTenants * datasets.size() * 2;
  // The burst puts half its jobs on the hot tenant; admission must not
  // refuse them.
  server_options.max_inflight_per_tenant = kBurstJobs;
  server_options.seed = config.seed;
  server_options.job_options.threads = 1;
  server_options.job_options.observability = config.trace;
  serd::serve::SerdServer server(server_options);
  serd::Status started = server.Start();
  ++setup_phase->attempted;
  if (!started.ok()) {
    ++setup_phase->failed;
    result->Expect("setup.server_start", false, started.ToString());
    return;
  }
  ++setup_phase->succeeded;
  serd::serve::ServeClient client;
  if (!result->Expect("setup.connect", client.Connect(server.port()).ok(),
                      "connect to the in-process server")) {
    server.Stop();
    return;
  }
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  {
    ScopedSpan span(tracer, "setup.prewarm");
    for (const std::string& tenant : tenants) {
      for (const ServedDataset& ds : datasets) {
        for (bool int8 : {false, true}) {
          ++setup_phase->attempted;
          // `reload` loads a missing entry and records its artifact
          // version, so later reloads of the unchanged artifact are no-ops.
          auto r = client.Call(
              EntryRequest("reload", tenant, ds, data_seed, int8));
          if (ResponseOk(r)) {
            ++setup_phase->succeeded;
          } else {
            ++setup_phase->failed;
            result->Expect("setup.prewarm", false,
                           r.ok() ? r->Dump() : r.status().ToString());
          }
        }
      }
    }
  }
  const double setup_s = Now() - setup_start;
  if (!config.trace) result->Set("setup_s", setup_s, "s");

  // Wire round trip of the cheapest verb on a warm connection.
  std::vector<double> rtt;
  for (int i = 0; i < kHealthPings; ++i) {
    Json req = Json::Object();
    req.Set("verb", "health");
    const double t0 = Now();
    auto r = client.Call(req);
    rtt.push_back(Now() - t0);
    result->Expect("health", ResponseOk(r), "health verb");
  }

  // --- The job list, a pure function of the workload seed. Job classes
  // are stratified — every block of 20 jobs holds exactly 10 hot-tenant
  // jobs, 10 per dataset and 2 int8 jobs — so each run offers the same
  // mix; Phase A shuffles it by the seed.
  serd::Rng rng(config.seed * 0x2545F4914F6CDD1DULL + 17);
  std::deque<Job> jobs;
  auto make_jobs = [&](const std::string& phase, int n, int deadline_ms,
                       bool shuffle) {
    std::vector<Job*> out;
    for (int k = 0; k < n; ++k) {
      Job job;
      job.index = static_cast<int>(jobs.size());
      job.tenant = k % 2 == 0 ? tenants[0] : tenants[1 + (k / 2) % 3];
      job.dataset = (k / 2) % 2;
      job.int8 = k % 20 == 4 || k % 20 == 15;
      job.seed_key = "seed" + std::to_string(config.seed) + "/" + phase +
                     std::to_string(k);
      job.deadline_ms = deadline_ms;
      job.out_dir = config.work_dir + "/served/" + phase + std::to_string(k);
      jobs.push_back(job);
      out.push_back(&jobs.back());
    }
    if (shuffle) rng.Shuffle(&out);
    return out;
  };
  // Phase A: a Poisson process over the window, drawn as its conditional
  // form (a fixed count of sorted uniform arrival times) so every run
  // offers the same number of jobs.
  std::vector<Job*> phase_a = make_jobs(
      "a", static_cast<int>(std::lround(kArrivalRate * config.seconds)),
      kDeadlineMs, /*shuffle=*/true);
  std::vector<double> arrivals;
  for (size_t k = 0; k < phase_a.size(); ++k) {
    arrivals.push_back(rng.Uniform() * config.seconds);
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (size_t k = 0; k < phase_a.size(); ++k) {
    phase_a[k]->scheduled = arrivals[k];
  }

  Waiter waiter(server.port());
  result->Expect("setup.waiter_connect", waiter.ok(), "waiter connection");
  RunResult::Phase* jobs_a = result->AddPhase("phase_a.jobs");
  RunResult::Phase* cheap = result->AddPhase("phase_a.cheap_requests");
  long refused = 0;
  std::vector<double> lag;
  auto submit = [&](Job* job, RunResult::Phase* phase) {
    ++phase->attempted;
    job->sent = Now();
    auto r = client.Call(
        JobRequest(*job, datasets[job->dataset], data_seed));
    job->acked = Now();
    if (ResponseOk(r) && r->Has("job")) {
      job->id = static_cast<uint64_t>(r->at("job").AsNumber());
      job->admitted = true;
      waiter.Push(job);
    } else {
      ++phase->failed;
      ++refused;
    }
  };

  // --- Phase A: open loop.
  const double a_start = Now();
  for (size_t k = 0; k < phase_a.size(); ++k) {
    Job* job = phase_a[k];
    const double due = a_start + job->scheduled;
    while (Now() < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(0.05, due - Now())));
    }
    job->scheduled = due;
    lag.push_back(Now() - due);
    submit(job, jobs_a);
    // Interleave one cheap request after every second job: stats, the
    // manifest of a warm entry, and a reload of the unchanged artifact
    // (which must not swap the entry).
    if (k % 2 == 1) {
      const size_t turn = k / 2;
      const ServedDataset& ds = datasets[turn % datasets.size()];
      const std::string& tenant = tenants[turn % tenants.size()];
      ++cheap->attempted;
      const size_t kind = turn % 3;
      Json req = Json::Object();
      if (kind == 0) req.Set("verb", "stats");
      if (kind == 1) {
        req = EntryRequest("manifest", tenant, ds, data_seed, false);
      }
      if (kind == 2) {
        req = EntryRequest("reload", tenant, ds, data_seed, false);
      }
      serd::Result<Json> r = client.Call(req);
      if (kind == 2 && ResponseOk(r)) {
        result->Expect("reload_unchanged_keeps_entry",
                       !r->at("reloaded").AsBool(),
                       "reload of an unchanged artifact swapped the entry");
      }
      if (!ResponseOk(r)) ++cheap->failed;
    }
  }
  waiter.Drain();
  const double a_end = Now();
  for (Job* job : phase_a) {
    if (!job->admitted) continue;
    if (JobDone(*job)) {
      ++jobs_a->succeeded;
    } else {
      ++jobs_a->failed;
    }
  }
  cheap->succeeded = cheap->attempted - cheap->failed;

  // --- Phase B: burst and drain.
  RunResult::Phase* jobs_b = result->AddPhase("phase_b.jobs");
  std::vector<Job*> phase_b =
      make_jobs("b", kBurstJobs, kBurstDeadlineMs, /*shuffle=*/false);
  const double b_start = Now();
  for (Job* job : phase_b) {
    job->scheduled = Now();
    submit(job, jobs_b);
  }
  waiter.Drain();
  const double b_end = Now();
  long b_done = 0;
  for (Job* job : phase_b) {
    if (!job->admitted) continue;
    if (JobDone(*job)) {
      ++jobs_b->succeeded;
      ++b_done;
    } else {
      ++jobs_b->failed;
    }
  }
  waiter.Finish();

  Json stats_req = Json::Object();
  stats_req.Set("verb", "stats");
  serd::Result<Json> stats_response = client.Call(stats_req);
  result->Expect("stats", ResponseOk(stats_response), "stats verb");
  const Json stats =
      stats_response.ok() ? stats_response.value() : Json::Object();
  Json shutdown = Json::Object();
  shutdown.Set("verb", "shutdown");
  client.Call(shutdown);
  client.Close();
  server.Stop();

  // --- Latency accounting (Phase A, from the scheduled send time).
  std::vector<double> latency, queue_wait, run_s, online, hot, other;
  for (Job* job : phase_a) {
    if (!JobDone(*job)) continue;
    const double l = TerminalTime(*job) - job->scheduled;
    latency.push_back(l);
    (job->tenant == tenants[0] ? hot : other).push_back(l);
    queue_wait.push_back(StatusNumber(*job, "queue_seconds"));
    run_s.push_back(StatusNumber(*job, "run_seconds"));
    online.push_back(StatusNumber(*job, "online_seconds"));
    if (tracer != nullptr && tracer->enabled()) {
      const int root = tracer->Add("serve.job", job->scheduled,
                                   TerminalTime(*job), job->index + 1, 1, -1);
      tracer->Add("serve.submit", job->sent, job->acked, job->index + 1, 1,
                  root);
      const double picked = job->acked + StatusNumber(*job, "queue_seconds");
      tracer->Add("serve.queue", job->acked, picked, job->index + 1, 1, root);
      tracer->Add("serve.run", picked, TerminalTime(*job), job->index + 1, 1,
                  root);
    }
  }
  const double deadline_missed =
      StatsCounter(stats, "scheduler.deadline_exceeded");
  result->Expect("deadlines_met", deadline_missed == 0.0,
                 FormatDouble(deadline_missed) + " jobs missed deadline_ms");
  for (const ServedDataset& ds : datasets) {
    result->Note(std::string("input_") + ds.name,
                 std::to_string(ds.inputs.real.a.size()) + "x" +
                     std::to_string(ds.inputs.real.b.size()) + " matches=" +
                     std::to_string(ds.inputs.real.matches.size()));
  }
  result->Note("phase_a_jobs", static_cast<double>(phase_a.size()));
  result->Note("phase_a_wall_s", a_end - a_start);
  result->Note("phase_a_rate", kArrivalRate);
  result->Note("phase_b_jobs", static_cast<double>(phase_b.size()));
  result->Note("phase_b_drain_s", b_end - b_start);

  // --- Correctness: replay a sample of served jobs through a direct
  // synthesizer (same artifact, precision and derived job seed) and
  // require byte-identical releases.
  // The sample: the first completed DBLP-ACM fp32, Restaurant fp32 and
  // DBLP-ACM int8 jobs (every block of the mix holds each kind).
  std::vector<Job*> sample;
  for (auto [dataset, int8] : {std::pair{0, false}, {1, false}, {0, true}}) {
    for (Job* job : phase_a) {
      if (JobDone(*job) && job->dataset == dataset && job->int8 == int8) {
        sample.push_back(job);
        break;
      }
    }
  }
  result->Expect("verify_sample_complete", sample.size() == 3,
                 "a sampled job kind never completed in Phase A");
  // Real test pairs for the served releases' matcher quality: the
  // DBLP-ACM fixture at the release-cold scale.
  const ERDataset quality_real = serd::datagen::Generate(
      DatasetKind::kDblpAcm, {.seed = data_seed, .scale = 0.04});
  RunResult::Phase* verify = result->AddPhase("verify.direct_replay");
  double jsd = 0.0;
  double eval_jsd_s = 0.0;
  bool have_quality = false;
  std::vector<double> f1;
  std::vector<double> direct_plain, direct_traced;
  for (Job* job : sample) {
    ServedDataset& ds = datasets[job->dataset];
    // JSON numbers are doubles, so the 64-bit job seed is re-derived from
    // the seed key exactly as the scheduler derives it.
    const uint64_t job_seed = serd::serve::JobScheduler::DeriveJobSeed(
        server_options.seed, job->seed_key);
    for (int traced = 0; traced <= (config.trace ? 1 : 0); ++traced) {
      ++verify->attempted;
      SerdOptions options = serd::serve::DefaultJobOptions();
      options.seed = data_seed;
      options.threads = 1;
      options.model_dir = ds.model_dir;
      options.artifact_mode = SerdOptions::ArtifactMode::kLoad;
      options.string_bank.decode_precision =
          job->int8 ? serd::nn::DecodePrecision::kInt8
                    : serd::nn::DecodePrecision::kFp32;
      options.observability = traced == 1;
      SerdSynthesizer synth(ds.inputs.real, options);
      const double t0 = Now();
      serd::Status fit = synth.Fit({}, serd::Table());
      synth.set_seed(job_seed);
      auto syn = fit.ok() ? synth.Synthesize()
                          : serd::Result<ERDataset>(fit);
      (traced ? direct_traced : direct_plain).push_back(Now() - t0);
      if (!syn.ok()) {
        ++verify->failed;
        result->Expect("verify.synthesize", false, syn.status().ToString());
        continue;
      }
      const std::string dir = config.work_dir + "/direct/" +
                              std::to_string(job->index) + "-" +
                              std::to_string(traced);
      serd::Status saved = serd::SaveDataset(syn.value(), dir);
      const bool same = saved.ok() &&
                        DigestDirectory(dir) == DigestDirectory(job->out_dir);
      result->Expect("served_release_matches_direct", same,
                     "job " + std::to_string(job->index) + " (" +
                         (job->int8 ? "int8" : "fp32") + ", dataset " +
                         std::to_string(job->dataset) + ")");
      const serd::SerdReport& rep = synth.report();
      result->Expect("served.guard_not_exhausted", !rep.guard_exhausted, "");
      result->Expect("served.sizes_equal_targets",
                     syn->a.size() == ds.inputs.real.a.size() &&
                         syn->b.size() == ds.inputs.real.b.size(),
                     "");
      result->Expect("served.s3_block_recall_is_1",
                     rep.s3_block_recall == 1.0, "");
      if (same) {
        ++verify->succeeded;
      } else {
        ++verify->failed;
      }
      // Matcher quality over the replayed DBLP-ACM releases, tested on
      // the larger release-cold fixture (Restaurant at this scale holds
      // too few matches for a meaningful F1); JSD and layer numbers from
      // the fp32 DBLP-ACM job.
      if (job->dataset == 0 && traced == (config.trace ? 1 : 0)) {
        f1.push_back(EvaluateMatcherQuality(quality_real, synth, syn.value(),
                                            config.seed)
                         .f1_syn);
      }
      if (!have_quality && job->dataset == 0 && !job->int8 &&
          traced == (config.trace ? 1 : 0)) {
        have_quality = true;
        const double e0 = Now();
        auto e = synth.EvaluateSyntheticJsd(syn.value());
        eval_jsd_s = Now() - e0;
        jsd = e.ok() ? e.value() : 0.0;
        if (config.trace) {
          AddManifestLayerMetrics(synth.RunManifestJson(), result);
          MatcherQuality q = EvaluateMatcherQuality(quality_real, synth,
                                                    syn.value(), config.seed);
          result->Set("quality.f1_gap", q.gap, "f1");
          result->Set("quality.f1_real", q.f1_real, "f1");
          result->Set("quality.syn_jsd", jsd, "jsd");
          ProbeInputs probe;
          probe.inputs = &ds.inputs;
          probe.synth = &synth;
          probe.release = &syn.value();
          probe.seed = config.seed;
          RunProbes(probe, result, tracer);
        }
      }
    }
  }
  result->Expect("verify_quality_sample", have_quality,
                 "no completed fp32 DBLP-ACM job in Phase A");

  double epsilon = 0.0;
  for (const ServedDataset& ds : datasets) epsilon += ds.epsilon;
  epsilon /= static_cast<double>(datasets.size());

  if (!config.trace) {
    result->Set("release_s", Median(latency), "s");
    result->Set("releases_per_s",
                static_cast<double>(b_done) / (b_end - b_start), "1/s");
    double f1_sum = 0.0;
    for (double v : f1) f1_sum += v;
    result->Set("f1_syn", f1.empty() ? 0.0 : f1_sum / f1.size(), "f1");
    result->Set("dp_epsilon", epsilon, "epsilon");
    result->Note("synth_s", Median(online));
    result->Note("syn_jsd", jsd);
    result->Note("release_samples", static_cast<double>(latency.size()));
    return;
  }

  const double tail = TailQuantileLevel(latency.size(), 0.9);
  result->Set("serve.job_tail_s", Quantile(latency, tail), "s");
  result->Note("serve.job_tail_level", tail);
  result->Note("serve.job_samples", static_cast<double>(latency.size()));
  result->Set("serve.queue_wait_p50_s", Median(queue_wait), "s");
  result->Set("serve.queue_wait_tail_s",
              Quantile(queue_wait, TailQuantileLevel(queue_wait.size(), 0.9)),
              "s");
  result->Set("serve.run_p50_s", Median(run_s), "s");
  result->Set("core.synthesize_s", Median(online), "s");
  result->Set("gmm.eval_jsd_s", eval_jsd_s, "s");
  result->Set("serve.wire_rtt_p50_ms", Median(rtt) * 1e3, "ms");
  result->Set("serve.hot_tenant_tail_s",
              Quantile(hot, TailQuantileLevel(hot.size(), 0.9)), "s");
  result->Set("serve.other_tenant_tail_s",
              Quantile(other, TailQuantileLevel(other.size(), 0.9)), "s");
  result->Note("serve.hot_samples", static_cast<double>(hot.size()));
  result->Note("serve.other_samples", static_cast<double>(other.size()));
  result->Set("serve.refused", static_cast<double>(refused), "count");
  result->Set("serve.deadline_exceeded", deadline_missed, "count");
  result->Set("serve.gen_lag_tail_ms",
              Quantile(lag, TailQuantileLevel(lag.size(), 0.9)) * 1e3, "ms");
  const double hits = StatsCounter(stats, "pool.hits");
  result->SetRatio("pool.hit_ratio", hits,
                   hits + StatsCounter(stats, "pool.misses"));
  result->Set("pool.load_s", StatsHistSum(stats, "pool.load_seconds"), "s");
  result->Set("artifact.load_s", StatsHistSum(stats, "pool.load_seconds") /
                                     std::max(1.0, StatsCounter(stats,
                                                                "pool.misses")),
              "s");
  result->Set("artifact.save_s", save_s, "s");
  result->Set("artifact.bytes", static_cast<double>(artifact_bytes), "bytes");
  result->Set("datagen.generate_s", generate_s, "s");
  if (!direct_plain.empty() && !direct_traced.empty()) {
    result->Set("obs.trace_overhead_frac",
                Median(direct_traced) / Median(direct_plain) - 1.0, "ratio");
  }
}

}  // namespace perfbench
