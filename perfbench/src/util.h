// Shared plumbing of the SERD benchmark runner: clocks, order statistics,
// process memory, release digests, the in-memory span tracer, and the
// result record every workload fills in.
#ifndef SERD_PERFBENCH_UTIL_H_
#define SERD_PERFBENCH_UTIL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary epoch.
double Now();

double Median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] of `v` (empty -> 0).
double Quantile(std::vector<double> v, double q);

/// The highest percentile of `v` that still has at least ten samples
/// beyond it, capped at `want` (e.g. 0.9). Never below the median; with
/// fewer than 20 samples the median is the best that can be reported.
double TailQuantileLevel(size_t n, double want);

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMb();

/// FNV-1a 64 over a directory's regular files: sorted relative names and
/// their bytes. Identical releases hash identically.
uint64_t DigestDirectory(const std::string& dir);

/// Size in bytes of a regular file (0 when missing).
uint64_t FileBytes(const std::string& path);

/// Removes a directory tree if present.
void RemoveTree(const std::string& path);

/// In-memory span recorder for the traced run. Spans are recorded only at
/// the benchmark's own call sites around calls into the library; the
/// library keeps its observability switch, which the traced run turns on
/// separately. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;      ///< index of the enclosing span, -1 at the root
    uint64_t job = 0;     ///< request id shared by one operation's spans
    int thread = 0;       ///< 0 = main thread, >0 = helper threads
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span of the main thread.
  int Begin(const std::string& name, uint64_t job = 0);
  void End(int id);
  /// Records a finished span with explicit times and parent (client-side
  /// spans of the serving workload, reconstructed from timestamps).
  /// Returns its index (-1 when disabled).
  int Add(const std::string& name, double start, double end, uint64_t job,
          int thread, int parent);
  /// Innermost open span of the main thread (-1 at the root).
  int current() const { return open_.empty() ? -1 : open_.back(); }

  /// Sum of each span name's self time: duration minus the part of it
  /// covered by direct children.
  std::map<std::string, double> SelfSeconds() const;
  /// Sum of each span name's total duration.
  std::map<std::string, double> TotalSeconds() const;

  /// Chrome trace-event JSON (complete "X" events, microseconds).
  std::string ChromeTraceJson() const;

 private:
  bool enabled_;
  double origin_ = -1.0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a Tracer; a null or disabled tracer costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t job = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name, job) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// What one benchmark run reports. Metrics keep insertion order so the
/// printed table follows the workload's narrative.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct Phase {
    std::string name;
    long attempted = 0;
    long succeeded = 0;
    long failed = 0;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };

  std::vector<Metric> metrics;
  std::deque<Phase> phases;  ///< deque: AddPhase pointers stay valid
  std::vector<Check> checks;
  /// Free-form provenance/context lines: input sizes, ratio bases.
  std::vector<std::pair<std::string, std::string>> notes;

  void Set(const std::string& name, double value, const std::string& unit);
  /// A ratio together with its base: records name = num / den and a note
  /// "name_base" = "num/den" so every ratio is published with its base.
  void SetRatio(const std::string& name, double num, double den);
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);
  Phase* AddPhase(const std::string& name);
  /// Records a correctness check; a failed check fails the run.
  bool Expect(const std::string& name, bool ok, const std::string& detail);

  long attempted() const;
  long failed() const;
  bool correct() const;
};

/// Options shared by all workloads.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for releases and artifacts
};

std::string FormatDouble(double v);

}  // namespace perfbench

#endif  // SERD_PERFBENCH_UTIL_H_
