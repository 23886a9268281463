// Numeric flag values for the command-line tools (serd_cli, serd_serve,
// serd_submit), read through the checked parsers in common/strings.h. A
// malformed or out-of-range value is a usage error: it prints the flag,
// the value and the accepted range, and exits 2 — never a silent 0 or a
// truncated number.
#ifndef SERD_EXAMPLES_FLAG_VALUES_H_
#define SERD_EXAMPLES_FLAG_VALUES_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/strings.h"

namespace serd::flags {

/// Bounds shared by the tools. A positive quantity (a dataset scale)
/// starts at the smallest positive double; thread and worker counts stop
/// at kMaxThreads so a typo cannot start thousands of threads; seeds and
/// ids sent over the wire stop at 2^53, the largest range a JSON number
/// (a double) holds exactly, which the server enforces too.
constexpr double kMinPositive = std::numeric_limits<double>::min();
constexpr double kMaxFinite = std::numeric_limits<double>::max();
constexpr int64_t kMaxThreads = 1024;
constexpr uint64_t kMaxExactInteger = uint64_t{1} << 53;

[[noreturn]] inline void BadValue(const std::string& flag, const char* text,
                                  const std::string& expected) {
  std::fprintf(stderr, "%s: invalid value '%s' (expected %s)\n",
               flag.c_str(), text, expected.c_str());
  std::exit(2);
}

inline int64_t Int(const std::string& flag, const char* text, int64_t lo,
                   int64_t hi) {
  int64_t value = 0;
  if (!ParseInt(text, lo, hi, &value)) {
    BadValue(flag, text,
             StrFormat("an integer in [%lld, %lld]", static_cast<long long>(lo),
                       static_cast<long long>(hi)));
  }
  return value;
}

inline uint64_t Unsigned(const std::string& flag, const char* text,
                         uint64_t lo, uint64_t hi) {
  uint64_t value = 0;
  if (!ParseUnsigned(text, lo, hi, &value)) {
    BadValue(flag, text,
             StrFormat("an unsigned integer in [%llu, %llu]",
                       static_cast<unsigned long long>(lo),
                       static_cast<unsigned long long>(hi)));
  }
  return value;
}

inline double FiniteDouble(const std::string& flag, const char* text,
                           double lo, double hi) {
  double value = 0.0;
  if (!ParseFiniteDouble(text, lo, hi, &value)) {
    BadValue(flag, text,
             StrFormat("a finite number in %s%g, %g]",
                       lo == kMinPositive ? "(" : "[",
                       lo == kMinPositive ? 0.0 : lo, hi));
  }
  return value;
}

}  // namespace serd::flags

#endif  // SERD_EXAMPLES_FLAG_VALUES_H_
