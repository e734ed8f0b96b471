// Shared helpers for the figure benches: client-list collection, strict flag
// parsing (--csv, --scale, --json, --seed, --reps), percentage
// formatting, and the self-timing perf-trajectory recorder that writes the
// versioned BENCH_*.json schema (EXPERIMENTS.md "Perf trajectory").
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/testbed.h"
#include "common/parse_number.h"
#include "common/table.h"

namespace imca::bench {

template <typename Testbed>
std::vector<fsapi::FileSystemClient*> clients_of(Testbed& tb) {
  std::vector<fsapi::FileSystemClient*> out;
  for (std::size_t i = 0; i < tb.n_clients(); ++i) {
    out.push_back(&tb.client(i));
  }
  return out;
}

struct BenchArgs {
  bool csv = false;
  // Scales the workload volume (files, file sizes): 1 = the bench default
  // (itself scaled down from the paper; see EXPERIMENTS.md), larger values
  // approach the paper's raw volumes at the cost of runtime.
  double scale = 1.0;
  // --json=<path>: write this bench's perf records (BENCH_*.json schema)
  // to `path`. Empty = don't write (sim_core_bench overrides the default).
  std::string json_path;
  // --seed=<n>: deterministic seed for benches with randomized mixes.
  std::uint64_t seed = 1;
  // --reps=<n>: timing repetitions per config; self-timing benches report
  // the best rep (interleaved across variants, so machine-wide drift on a
  // busy host hits every variant roughly equally).
  int reps = 3;
  // --bricks: run the bench's brick-scaling sweep (distribute groups) in
  // addition to its headline figure. Only fig09 honours it today.
  bool bricks = false;
  // --writeback: run the durable write-back ablation (write-through vs
  // K-way dirty absorb into the MCD tier). Only fig09 honours it today.
  bool writeback = false;
};

[[noreturn]] inline void usage_and_exit(const char* argv0,
                                        const char* bad_flag) {
  if (bad_flag != nullptr) {
    std::fprintf(stderr, "%s: unknown flag '%s'\n", argv0, bad_flag);
  }
  std::fprintf(stderr,
               "usage: %s [--csv] [--scale=<x>] [--json=<path>] [--seed=<n>]"
               " [--reps=<n>] [--bricks] [--writeback]\n"
               "  --csv           print tables as CSV\n"
               "  --scale=<x>     multiply workload volume (default 1.0)\n"
               "  --json=<path>   append perf records (BENCH_*.json schema)\n"
               "  --seed=<n>      seed for randomized mixes (default 1)\n"
               "  --reps=<n>      timing reps per config, best wins"
               " (default 3)\n"
               "  --bricks        also run the brick-scaling sweep\n"
               "  --writeback     also run the write-back ablation\n",
               argv0);
  std::exit(2);
}

[[noreturn]] inline void bad_value_and_exit(const char* argv0,
                                            const char* arg) {
  std::fprintf(stderr, "%s: bad value in '%s'\n", argv0, arg);
  usage_and_exit(argv0, nullptr);
}

// Strict: any unrecognized argument is a usage error (exit 2) — a typo like
// --sclae=4 must not silently run the bench at the wrong scale — and so is
// a value that is not wholly a number in range (--scale=abc, --seed=2x,
// --reps=0).
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--csv") == 0) {
      args.csv = true;
    } else if (std::strncmp(a, "--scale=", 8) == 0) {
      // Written so that NaN fails the range check too.
      if (!parse_number(std::string_view(a + 8), args.scale) ||
          !(args.scale > 0 && std::isfinite(args.scale))) {
        bad_value_and_exit(argv[0], a);
      }
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      args.json_path = a + 7;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      if (!parse_number(std::string_view(a + 7), args.seed)) {
        bad_value_and_exit(argv[0], a);
      }
    } else if (std::strncmp(a, "--reps=", 7) == 0) {
      if (!parse_number(std::string_view(a + 7), args.reps) || args.reps < 1) {
        bad_value_and_exit(argv[0], a);
      }
    } else if (std::strcmp(a, "--bricks") == 0) {
      args.bricks = true;
    } else if (std::strcmp(a, "--writeback") == 0) {
      args.writeback = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage_and_exit(argv[0], nullptr);
    } else {
      usage_and_exit(argv[0], a);
    }
  }
  return args;
}

inline void print_table(const Table& table, const BenchArgs& args) {
  if (args.csv) {
    table.print_csv();
  } else {
    table.print();
  }
}

inline std::string pct_reduction(double baseline, double value) {
  if (baseline <= 0) return "n/a";
  return Table::cell(100.0 * (baseline - value) / baseline, 1) + "%";
}

// --- perf trajectory (BENCH_*.json) ---------------------------------------
//
// Every record carries the full versioned schema so any single line is
// self-describing: {schema, git_rev, bench, events, wall_ms,
// events_per_sec, peak_rss_kb}. Files hold one JSON object with a
// `results` array; tools/check_bench_schema.py validates them in CI's
// bench-trajectory job. Perf numbers are recorded, never gated — machines
// vary; the trajectory across PRs is the signal.

inline constexpr const char* kBenchSchema = "imca-bench/v1";

inline const char* git_rev() {
#ifdef IMCA_GIT_REV
  return IMCA_GIT_REV;
#else
  return "unknown";
#endif
}

struct BenchRecord {
  std::string bench;  // e.g. "sim_core/timer/n=100000/wheel"
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::int64_t peak_rss_kb = 0;
};

inline std::int64_t peak_rss_kb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux
}

// Wall-clock stopwatch; finish(events) closes a BenchRecord.
class BenchTimer {
 public:
  BenchTimer() : start_(std::chrono::steady_clock::now()) {}

  double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

  BenchRecord finish(std::string bench, std::uint64_t events) const {
    BenchRecord r;
    r.bench = std::move(bench);
    r.events = events;
    r.wall_ms = elapsed_ms();
    r.events_per_sec =
        r.wall_ms > 0 ? static_cast<double>(events) / (r.wall_ms / 1e3) : 0.0;
    r.peak_rss_kb = peak_rss_kb();
    return r;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Write `records` to `path` (overwrites: each bench owns its BENCH_*.json;
// the cross-PR trajectory lives in version control / CI artifacts, keyed by
// git_rev). Returns false on I/O failure.
inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"%s\",\n  \"git_rev\": \"%s\",\n"
               "  \"results\": [\n", kBenchSchema, git_rev());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "    {\"schema\": \"%s\", \"git_rev\": \"%s\","
                 " \"bench\": \"%s\", \"events\": %llu,"
                 " \"wall_ms\": %.3f, \"events_per_sec\": %.0f,"
                 " \"peak_rss_kb\": %lld}%s\n",
                 kBenchSchema, git_rev(), r.bench.c_str(),
                 static_cast<unsigned long long>(r.events), r.wall_ms,
                 r.events_per_sec, static_cast<long long>(r.peak_rss_kb),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# perf trajectory: %zu record%s -> %s (git_rev=%s)\n",
              records.size(), records.size() == 1 ? "" : "s", path.c_str(),
              git_rev());
  return true;
}

}  // namespace imca::bench
