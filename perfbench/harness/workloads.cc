#include "harness/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/units.h"
#include "imca/config.h"

namespace perfbench {
namespace {

using imca::kKiB;
using imca::kMiB;
using imca::kMicro;

// The benchmark's own generator (splitmix64), so that its inputs do not move
// when the simulator's RNG changes.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// Path component derived from the seed: placement under CRC32 hashes the
// key text, so each seed lands the file set differently on the MCD bank.
std::string seed_tag(std::uint64_t seed) {
  Gen g(seed ^ 0x5eed7a9ULL);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%08llx",
                static_cast<unsigned long long>(g.next() & 0xffffffffULL));
  return buf;
}

// Start offsets spread over [0, max): closed-loop clients on real nodes do
// not start in lock-step.
std::vector<imca::SimDuration> start_delays(Gen& g, std::size_t n,
                                            imca::SimDuration max) {
  std::vector<imca::SimDuration> d(n);
  for (auto& x : d) x = g.below(max);
  return d;
}

std::vector<std::uint32_t> permutation(Gen& g, std::size_t n) {
  std::vector<std::uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[g.below(i)]);
  return p;
}

std::string mib(std::uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f MiB", imca::to_mib(bytes));
  return buf;
}

// Fig 5's metadata path: every client stats every (empty) file.
Workload stat_storm(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  const std::size_t clients = full ? 64 : 8;
  const std::size_t files = full ? 4096 : 64;
  Workload w;
  w.name = "stat-storm";
  w.config.n_clients = clients;
  w.config.n_mcds = full ? 4 : 2;
  w.config.imca.hash = imca::core::HashScheme::kCrc32;
  w.handles = Handles::kNone;
  Gen g(seed);
  const std::string dir = "/storm/" + seed_tag(seed) + "/f";
  for (std::size_t i = 0; i < files; ++i) {
    w.files.push_back({dir + std::to_string(i),
                       static_cast<std::uint32_t>(i % clients), 0});
  }
  // Staggered, seed-permuted start slot per client; each sweeps all files.
  const auto slot = permutation(g, clients);
  w.ops.resize(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t start = slot[c] * files / clients;
    auto& ops = w.ops[c];
    ops.reserve(files);
    for (std::size_t k = 0; k < files; ++k) {
      ops.push_back({OpKind::kStat,
                     static_cast<std::uint32_t>((start + k) % files), 0});
    }
  }
  w.start_delay = start_delays(g, clients, 100 * kMicro);
  w.sizes = std::to_string(files) + " empty files, " +
            std::to_string(clients) + " clients x " + std::to_string(files) +
            " stats, " + std::to_string(w.config.n_mcds) +
            " MCDs (CRC32); working set = stat items only";
  return w;
}

// Fig 9's shape: each client writes its own file sequentially, then (after
// a barrier and one stat) reads it back, warm from SMCache's publishes.
Workload stream_read(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  const std::size_t clients = full ? 8 : 2;
  Workload w;
  w.name = "stream-read";
  w.config.n_clients = clients;
  w.config.n_mcds = full ? 4 : 2;
  w.config.imca.hash = imca::core::HashScheme::kModulo;
  w.config.imca.block_size = 2 * kKiB;
  w.io_bytes = full ? 256 * kKiB : 32 * kKiB;
  w.handles = Handles::kOwnerKeeps;
  Gen g(seed);
  const std::string dir = "/stream/" + seed_tag(seed) + "/c";
  // 8 MiB per client (tiny: 4 requests). The seed moves the start offsets,
  // not the volume, so peak RSS stays comparable across seeds.
  const auto chunks = static_cast<std::uint32_t>(full ? 32 : 4);
  const std::uint64_t total = clients * chunks * w.io_bytes;
  w.ops.resize(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    const auto file = static_cast<std::uint32_t>(c);
    w.files.push_back({dir + std::to_string(c), file, 0});
    auto& ops = w.ops[c];
    for (std::uint32_t k = 0; k < chunks; ++k) {
      ops.push_back({OpKind::kWrite, file, k});
    }
    ops.push_back({OpKind::kBarrier, 0, 0});
    ops.push_back({OpKind::kStat, file, 0});
    for (std::uint32_t k = 0; k < chunks; ++k) {
      ops.push_back({OpKind::kRead, file, k});
    }
  }
  // Everything written fits both tiers: the read phase is warm by design.
  w.config.mcd_memory = full ? 64 * kMiB : 4 * kMiB;
  w.config.server.page_cache_bytes = full ? 128 * kMiB : 8 * kMiB;
  w.start_delay = start_delays(g, clients, 500 * kMicro);
  w.sizes = std::to_string(clients) + " clients x " + mib(total / clients) +
            " files (" +
            mib(total) + " written then read), " +
            std::to_string(w.io_bytes / kKiB) + " KiB requests, " +
            std::to_string(w.config.n_mcds) + " MCDs x " +
            mib(w.config.mcd_memory) + " (modulo, 2 KiB blocks), page cache " +
            mib(w.config.server.page_cache_bytes);
  return w;
}

// Zipf(s) sampler over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& x : cdf_) x /= sum;
  }
  std::size_t operator()(Gen& g) const {
    const double u = g.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Reads beside writes on a working set larger than both cache tiers.
Workload mixed_rw(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  const std::size_t clients = full ? 16 : 4;
  const std::size_t files_per_client = full ? 16 : 4;
  const std::size_t files = clients * files_per_client;
  const std::uint64_t file_bytes = full ? 256 * kKiB : 32 * kKiB;
  // Enough calls that the disk-bound p99 is stable from seed to seed.
  const std::size_t calls = full ? 6000 : 50;
  Workload w;
  w.name = "mixed-rw";
  w.config.n_clients = clients;
  w.config.n_mcds = 2;
  w.config.imca.hash = imca::core::HashScheme::kCrc32;
  w.io_bytes = 4 * kKiB;
  w.populate_chunk = full ? 64 * kKiB : 16 * kKiB;
  w.handles = Handles::kOpenAll;
  const std::uint64_t working_set = files * file_bytes;
  w.config.mcd_memory = working_set * 3 / 16;       // bank = 3/8 of the set
  w.config.server.page_cache_bytes = working_set * 3 / 8;
  Gen g(seed);
  const std::string dir = "/mixed/" + seed_tag(seed) + "/f";
  for (std::size_t i = 0; i < files; ++i) {
    w.files.push_back({dir + std::to_string(i),
                       static_cast<std::uint32_t>(i % clients), file_bytes});
  }
  // Seeded popularity: rank r of the Zipf law is file rank_to_file[r].
  const auto rank_to_file = permutation(g, files);
  std::vector<std::vector<std::uint32_t>> owned_by_rank(clients);
  for (const auto f : rank_to_file) owned_by_rank[f % clients].push_back(f);
  const Zipf any(files, 0.9);
  const Zipf own(files_per_client, 0.9);
  const auto chunks = static_cast<std::uint32_t>(file_bytes / w.io_bytes);
  w.ops.resize(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    auto& ops = w.ops[c];
    ops.reserve(calls);
    for (std::size_t k = 0; k < calls; ++k) {
      const double u = g.uniform();
      const auto chunk = static_cast<std::uint32_t>(g.below(chunks));
      if (u < 0.70) {
        ops.push_back({OpKind::kRead, rank_to_file[any(g)], chunk});
      } else if (u < 0.90) {
        ops.push_back({OpKind::kWrite, owned_by_rank[c][own(g)], chunk});
      } else {
        ops.push_back({OpKind::kStat, rank_to_file[any(g)], 0});
      }
    }
  }
  w.start_delay = start_delays(g, clients, 200 * kMicro);
  w.sizes = std::to_string(clients) + " clients x " + std::to_string(calls) +
            " calls (70% read / 20% write / 10% stat, Zipf 0.9), " +
            std::to_string(files) + " files x " + mib(file_bytes) +
            " = working set " + mib(working_set) + "; MCD bank " +
            std::to_string(w.config.n_mcds) + " x " +
            mib(w.config.mcd_memory) + " (CRC32), page cache " +
            mib(w.config.server.page_cache_bytes);
  return w;
}

}  // namespace

const char* kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kStat: return "stat";
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kBarrier: return "barrier";
  }
  return "?";
}

std::uint64_t Workload::calls() const {
  std::uint64_t n = 0;
  for (const auto& stream : ops) {
    for (const auto& op : stream) n += op.kind != OpKind::kBarrier;
  }
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stat-storm", "stream-read",
                                                 "mixed-rw"};
  return names;
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, Scale scale) {
  std::optional<Workload> w;
  if (name == "stat-storm") w = stat_storm(seed, scale);
  if (name == "stream-read") w = stream_read(seed, scale);
  if (name == "mixed-rw") w = mixed_rw(seed, scale);
  if (w) w->seed = seed;
  return w;
}

}  // namespace perfbench
