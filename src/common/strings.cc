#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace serd {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

namespace {

/// std::from_chars over all of `text`, then the range check. from_chars
/// already refuses leading whitespace and '+', a '-' on unsigned types,
/// and values that overflow T (1e400, 2^64 as int64).
template <typename T>
bool ParseNumber(std::string_view text, T lo, T hi, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

bool ParseInt(std::string_view text, int64_t lo, int64_t hi, int64_t* out) {
  return ParseNumber(text, lo, hi, out);
}

bool ParseUnsigned(std::string_view text, uint64_t lo, uint64_t hi,
                   uint64_t* out) {
  return ParseNumber(text, lo, hi, out);
}

bool ParseFiniteDouble(std::string_view text, double lo, double hi,
                       double* out) {
  // from_chars accepts "nan", "inf" and "infinity"; the range test rejects
  // NaN, and the finiteness test the infinities even for an unbounded hi.
  double value = 0.0;
  if (!ParseNumber(text, lo, hi, &value) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace serd
