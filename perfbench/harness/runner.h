// One iteration of a workload: build a GlusterTestbed, run the untimed
// set-up, snapshot every public counter, run the timed closed-loop phase
// through fsapi::FileSystemClient only, snapshot again.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "harness/workloads.h"
#include "imca/cmcache.h"
#include "imca/smcache.h"
#include "memcache/cache.h"

namespace perfbench {

enum Role { kClientRole = 0, kServerRole = 1, kMcdRole = 2 };
enum Station { kCpu = 0, kNicTx = 1, kNicRx = 2 };
inline constexpr const char* kRoleNames[] = {"client", "server", "mcd"};
inline constexpr const char* kStationNames[] = {"cpu", "nic_tx", "nic_rx"};

// A sim::FifoResource read from outside.
struct StationSnap {
  imca::SimDuration busy = 0;
  imca::SimDuration queued = 0;
  std::uint64_t requests = 0;
  std::size_t servers = 1;
  double utilization = 0;  // FifoResource::utilization() at the snapshot
};

struct Counters {
  imca::SimTime now = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::array<std::array<std::vector<StationSnap>, 3>, 3> nodes;  // [role][st]
  std::vector<StationSnap> disks;
  std::uint64_t page_cache_hits = 0;
  std::uint64_t page_cache_misses = 0;
  imca::memcache::CacheStats mcd;
  imca::mcclient::ClientStats mcclient;  // every connection set, summed
  imca::core::CmCacheStats cmcache;      // every client, summed
  imca::core::SmCacheStats smcache;
  std::uint64_t server_fops = 0;
  std::uint64_t protocol_retries = 0;
  imca::BufferStats buffer;
};

// One fsapi call, recorded in traced iterations only.
struct Span {
  std::uint64_t op_id = 0;
  std::uint32_t client = 0;
  OpKind kind = OpKind::kStat;
  imca::SimTime sim_start = 0;
  imca::SimTime sim_end = 0;
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
};

struct IterationResult {
  std::size_t n_clients = 0;
  double setup_host_s = 0;
  double timed_host_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  // Simulated per-call latency (ns), in issue order per kind.
  std::array<std::vector<std::uint64_t>, kKinds> latency;
  std::array<std::uint64_t, kKinds> bytes = {};
  imca::SimTime phase_start = 0;     // sim time the timed phase began
  imca::SimDuration makespan = 0;    // until the slowest client finished
  imca::SimTime first_read = 0;      // issue time of the first read
  imca::SimTime last_read_end = 0;
  std::uint64_t mcd_items_at_start = 0;
  Counters before;
  Counters after;
  std::vector<Span> spans;
};

IterationResult run_iteration(const Workload& w, bool trace);

}  // namespace perfbench
