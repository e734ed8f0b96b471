// Strict parsing of numeric command-line values, shared by imcasim and the
// figure benches so that both reject the same malformed input.
#pragma once

#include <charconv>
#include <limits>
#include <string_view>
#include <system_error>

namespace imca {

// All of `s` as one decimal number: no leading space or '+', no trailing
// junk, no overflow, and no '-' for an unsigned `out`.
template <class T>
bool parse_number(std::string_view s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && end == s.data() + s.size();
}

// `s` as a count of `unit`s (MiB, milliseconds, ...), stored as the product.
// A product that would wrap is rejected like any other malformed value.
template <class T>
bool parse_scaled(std::string_view s, T unit, T& out) {
  T count{};
  if (!parse_number(s, count) || count > std::numeric_limits<T>::max() / unit) {
    return false;
  }
  out = count * unit;
  return true;
}

}  // namespace imca
