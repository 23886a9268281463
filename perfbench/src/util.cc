#include "util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace fs = std::filesystem;

double Now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double TailQuantileLevel(size_t n, double want) {
  if (n < 20) return 0.5;
  const double level = 1.0 - 10.0 / static_cast<double>(n);
  return std::max(0.5, std::min(want, level));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

void Fnv(uint64_t* h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    *h ^= static_cast<unsigned char>(data[i]);
    *h *= 1099511628211ULL;
  }
}

}  // namespace

uint64_t DigestDirectory(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      names.push_back(fs::relative(entry.path(), dir).string());
    }
  }
  std::sort(names.begin(), names.end());
  uint64_t h = 14695981039346656037ULL;
  for (const std::string& name : names) {
    Fnv(&h, name.data(), name.size() + 1);  // include the terminator
    std::ifstream in(fs::path(dir) / name, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    Fnv(&h, bytes.data(), bytes.size());
  }
  return h;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

int Tracer::Begin(const std::string& name, uint64_t job) {
  const double now = Now();
  if (origin_ < 0.0) origin_ = now;
  Span span;
  span.name = name;
  span.start = now;
  span.end = now;
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job != 0 || open_.empty() ? job : spans_[open_.back()].job;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end = Now();
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

int Tracer::Add(const std::string& name, double start, double end,
                uint64_t job, int thread, int parent) {
  if (!enabled_) return -1;
  if (origin_ < 0.0 || start < origin_) origin_ = start;
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.job = job;
  span.thread = thread;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    // Client-side spans from helper threads overlap their parent rather
    // than nesting in it; only same-thread children are subtracted.
    if (s.parent >= 0 && s.thread == spans_[s.parent].thread) {
      child[s.parent] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        std::max(0.0, spans_[i].end - spans_[i].start - child[i]);
  }
  return out;
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

std::string Tracer::ChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"job\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.thread,
                  (s.start - origin_) * 1e6, (s.end - s.start) * 1e6, i,
                  s.parent, static_cast<unsigned long long>(s.job));
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void RunResult::SetRatio(const std::string& name, double num, double den) {
  Set(name, den > 0.0 ? num / den : 0.0, "ratio");
  Note(name + "_base", FormatDouble(num) + "/" + FormatDouble(den));
}

void RunResult::Note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

void RunResult::Note(const std::string& key, double value) {
  Note(key, FormatDouble(value));
}

RunResult::Phase* RunResult::AddPhase(const std::string& name) {
  phases.push_back({name, 0, 0, 0});
  return &phases.back();
}

bool RunResult::Expect(const std::string& name, bool ok,
                       const std::string& detail) {
  checks.push_back({name, ok, detail});
  return ok;
}

long RunResult::attempted() const {
  long n = 0;
  for (const Phase& p : phases) n += p.attempted;
  return n + static_cast<long>(checks.size());
}

long RunResult::failed() const {
  long n = 0;
  for (const Phase& p : phases) n += p.failed;
  for (const Check& c : checks) n += c.ok ? 0 : 1;
  return n;
}

bool RunResult::correct() const {
  for (const Check& c : checks) {
    if (!c.ok) return false;
  }
  for (const Phase& p : phases) {
    if (p.failed != 0) return false;
  }
  return true;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
