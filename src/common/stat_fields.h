// One field list per stats struct (DESIGN.md §5m). Each counter struct
// lists its uint64_t members, name plus pointer-to-member, in a static
// `fields()` beside the declaration; sums, the `# prefix: ...` report lines
// and the memcached `stats` reply all walk that list. The hot path keeps
// its plain `++stats_.x`.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace imca {

// One counter of stats struct S: its report name and its member.
template <class S>
struct StatField {
  const char* name;
  std::uint64_t S::*member;
  bool is_max = false;  // combines by max (a high-water mark), not by sum
};

// Builds S's field list. Called from inside S::fields(), where S is
// complete, so a uint64_t member left out of the list fails to compile.
template <class S, std::size_t N>
constexpr std::array<StatField<S>, N> stat_fields(
    const StatField<S> (&list)[N]) {
  static_assert(sizeof(S) == N * sizeof(std::uint64_t),
                "every uint64_t member of a stats struct must be listed");
  return std::to_array(list);
}

template <class S>
concept StatsStruct = requires { S::fields(); };

// Field-wise `a += b`: sums every counter, maxes the is_max ones.
template <StatsStruct S>
S& operator+=(S& a, const S& b) noexcept {
  for (const StatField<S>& f : S::fields()) {
    a.*f.member = f.is_max ? std::max(a.*f.member, b.*f.member)
                           : a.*f.member + b.*f.member;
  }
  return a;
}

// "# <prefix>: name=value ...\n", every field in declaration order.
template <StatsStruct S>
std::string stats_line(std::string_view prefix, const S& s) {
  std::string out = "# ";
  out += prefix;
  out += ':';
  for (const StatField<S>& f : S::fields()) {
    out += ' ';
    out += f.name;
    out += '=';
    out += std::to_string(s.*f.member);
  }
  out += '\n';
  return out;
}

}  // namespace imca
