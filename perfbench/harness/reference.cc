#include "harness/reference.h"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kKeys = 1 << 16;
constexpr std::size_t kArenaBytes = 32 << 20;
constexpr std::size_t kBatch = 20000;
constexpr std::size_t kLargeBytes = 256 << 10;

struct State {
  std::vector<std::string> keys;
  std::unordered_map<std::string, std::uint64_t> index;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::vector<unsigned char> arena;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;

  State() : arena(kArenaBytes) {
    for (std::size_t i = 0; i < kKeys; ++i) {
      keys.push_back("/reference/" + std::to_string(i * 2654435761u) + ":" +
                     std::to_string(i * 2048));
      index.emplace(keys.back(), i);
      ordered.emplace(next(), i);
    }
    for (std::size_t i = 0; i < arena.size(); ++i) {
      arena[i] = static_cast<unsigned char>(i * 131);
    }
  }

  std::uint64_t next() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }

  void op() {
    const std::uint64_t r = next();
    const auto it = index.find(keys[r % kKeys]);
    sink += it->second;
    const auto lb = ordered.lower_bound(r);
    if (lb != ordered.end()) {
      sink += lb->second;
      ordered.erase(lb);
      ordered.emplace(next(), r);
    }
    const std::size_t len = (r >> 20) % 16 == 0 ? 16384 : 64 + (r >> 24) % 1024;
    std::vector<unsigned char> copy(len);
    std::memcpy(copy.data(), arena.data() + (r >> 32) % (kArenaBytes - len), len);
    sink += copy[len / 2];
    if (r % 128 == 0) {  // a request-sized payload, as stream-read moves
      std::vector<unsigned char> large(kLargeBytes);
      std::memcpy(large.data(), arena.data() + (r >> 8) % (kArenaBytes - kLargeBytes),
                  kLargeBytes);
      sink += large[kLargeBytes - 1];
    }
  }
};

}  // namespace

double reference_rate() {
  static State state;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kBatch; ++i) state.op();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return s > 0 ? static_cast<double>(kBatch) / s : 0;
}

}  // namespace perfbench
