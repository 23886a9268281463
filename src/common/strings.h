#ifndef SERD_COMMON_STRINGS_H_
#define SERD_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace serd {

/// ASCII lowercase copy of `s`.
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// Splits on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; no empty tokens are produced.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Checked number parsing for flags and other untrusted text. The whole of
/// `text` must be one base-10 number inside [lo, hi]: no surrounding
/// whitespace, no leading '+', no fraction or exponent in an integer, no
/// sign on an unsigned value, and no NaN or infinity. On failure `*out` is
/// left untouched and false is returned, so "abc", "7x" and "2.9" (as an
/// integer) are errors rather than 0, 7 and 2.
bool ParseInt(std::string_view text, int64_t lo, int64_t hi, int64_t* out);
bool ParseUnsigned(std::string_view text, uint64_t lo, uint64_t hi,
                   uint64_t* out);
bool ParseFiniteDouble(std::string_view text, double lo, double hi,
                       double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace serd

#endif  // SERD_COMMON_STRINGS_H_
