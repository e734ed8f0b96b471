#include "harness/layers.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

Metric count(std::string name, std::uint64_t delta) {
  return {std::move(name), static_cast<double>(delta), "count", 1, {}};
}

// p50, p99 and mean of simulated durations (ns), reported in us.
void latency(const std::string& prefix, const std::vector<std::uint64_t>& v,
             std::vector<Metric>& out) {
  std::uint64_t sum = 0;
  for (const auto x : v) sum += x;
  const double mean =
      v.empty() ? 0.0 : static_cast<double>(sum) / static_cast<double>(v.size());
  out.push_back({prefix + "_p50_us", percentile_ns(v, 0.50) / 1e3, "us",
                 v.size(), {}});
  out.push_back({prefix + "_p99_us", percentile_ns(v, 0.99) / 1e3, "us",
                 v.size(), {}});
  out.push_back({prefix + "_mean_us", mean / 1e3, "us", v.size(), {}});
}

// Window utilization and mean queue wait of a group of stations, each the
// max over the group's members.
void stations(const std::string& prefix, const std::vector<StationSnap>& b,
              const std::vector<StationSnap>& a, double elapsed,
              const std::string& members, std::vector<Metric>& out) {
  double util = 0;
  double wait_us = 0;
  std::uint64_t requests = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const std::uint64_t n = a[i].requests - b[i].requests;
    requests += n;
    if (elapsed > 0) {
      util = std::max(util, static_cast<double>(a[i].busy - b[i].busy) /
                                (elapsed * static_cast<double>(a[i].servers)));
    }
    if (n > 0) {
      wait_us = std::max(wait_us, static_cast<double>(a[i].queued - b[i].queued) /
                                      static_cast<double>(n) / 1e3);
    }
  }
  out.push_back({prefix + ".util", util, "ratio", a.size(),
                 "max over " + members + " of busy/(elapsed*servers)"});
  out.push_back({prefix + ".wait_us", wait_us, "us", requests,
                 "max over " + members + " of queued/requests"});
}

}  // namespace

std::vector<Metric> sim_metrics(const IterationResult& r) {
  std::vector<Metric> out;
  std::vector<std::uint64_t> all;
  for (const auto& v : r.latency) all.insert(all.end(), v.begin(), v.end());
  latency("sim_call", all, out);
  out.push_back({"sim_makespan_s", imca::to_seconds(r.makespan), "s",
                 r.n_clients, {}});
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (r.latency[k].empty()) continue;
    latency(std::string("sim_") + kind_name(static_cast<OpKind>(k)),
            r.latency[k], out);
  }
  const auto reads = static_cast<std::size_t>(OpKind::kRead);
  if (!r.latency[reads].empty() && r.last_read_end > r.first_read) {
    out.push_back({"sim_read_MBps",
                   imca::to_mib(r.bytes[reads]) /
                       imca::to_seconds(r.last_read_end - r.first_read),
                   "MB/s", r.latency[reads].size(),
                   "read bytes / (last read end - first read issue)"});
  }
  out.push_back(ratio("error_rate", r.failed, r.attempted, "failed",
                      "attempted"));
  return out;
}

std::vector<Metric> layer_metrics(const IterationResult& r) {
  const Counters& b = r.before;
  const Counters& a = r.after;
  const std::uint64_t n = r.attempted;
  const double elapsed = static_cast<double>(a.now - b.now);
  std::vector<Metric> out;

  out.push_back(ratio("sim.events_per_fop", a.events - b.events, n, "events",
                      "fops"));
  out.push_back(ratio("net.msgs_per_fop", a.messages - b.messages, n,
                      "fabric messages", "fops"));
  for (const Role role : {kClientRole, kServerRole, kMcdRole}) {
    for (const Station st : {kCpu, kNicTx, kNicRx}) {
      stations(std::string("net.") + kRoleNames[role] + "." + kStationNames[st],
               b.nodes[role][st], a.nodes[role][st], elapsed, "nodes", out);
    }
  }

  // store: RAID members, page cache.
  stations("store.disk", b.disks, a.disks, elapsed, "RAID members", out);
  const std::uint64_t pc_hits = a.page_cache_hits - b.page_cache_hits;
  const std::uint64_t pc_misses = a.page_cache_misses - b.page_cache_misses;
  out.push_back(ratio("store.page_cache.hit_ratio", pc_hits, pc_hits + pc_misses,
                      "page hits", "page lookups"));

  // memcache: the MCD bank's own counters.
  out.push_back(ratio("memcache.get_hit_ratio", a.mcd.get_hits - b.mcd.get_hits,
                      a.mcd.cmd_get - b.mcd.cmd_get, "key hits", "keys got"));
  out.push_back(count("memcache.evictions", a.mcd.evictions - b.mcd.evictions));
  Metric items = count("memcache.curr_items", a.mcd.curr_items);
  items.basis = "at the end of the timed phase; at its start: " +
                std::to_string(b.mcd.curr_items);
  out.push_back(items);

  // mcclient: every connection set (CMCache readers + SMCache writer).
  out.push_back(ratio("mcclient.gets_per_fop", a.mcclient.gets - b.mcclient.gets,
                      n, "keys got", "fops"));
  out.push_back(ratio("mcclient.sets_per_fop", a.mcclient.sets - b.mcclient.sets,
                      n, "sets", "fops"));
  out.push_back(ratio("mcclient.deletes_per_fop",
                      a.mcclient.deletes - b.mcclient.deletes, n, "deletes",
                      "fops"));

  // imca: CMCache (client side, summed) and SMCache (brick side).
  const auto& cb = b.cmcache;
  const auto& ca = a.cmcache;
  const std::uint64_t stat_hits = ca.stat_hits - cb.stat_hits;
  out.push_back(ratio("imca.cmcache.stat_hit_ratio", stat_hits,
                      stat_hits + (ca.stat_misses - cb.stat_misses),
                      "stat hits", "stat lookups"));
  out.push_back(ratio("imca.cmcache.block_hit_ratio",
                      ca.blocks_hit - cb.blocks_hit,
                      ca.blocks_requested - cb.blocks_requested, "blocks hit",
                      "blocks requested"));
  const std::uint64_t reads = (ca.reads_from_cache - cb.reads_from_cache) +
                              (ca.reads_partial - cb.reads_partial) +
                              (ca.reads_forwarded - cb.reads_forwarded);
  out.push_back(ratio("imca.cmcache.reads_from_cache_ratio",
                      ca.reads_from_cache - cb.reads_from_cache, reads,
                      "reads fully cached", "reads"));
  out.push_back(ratio("imca.cmcache.reads_partial_ratio",
                      ca.reads_partial - cb.reads_partial, reads,
                      "reads partially cached", "reads"));
  out.push_back(count("imca.cmcache.coalesced_waiters",
                      ca.coalesced_waiters - cb.coalesced_waiters));
  const auto writes = r.latency[static_cast<std::size_t>(OpKind::kWrite)].size();
  out.push_back(ratio("imca.smcache.readbacks_per_write",
                      a.smcache.readbacks - b.smcache.readbacks, writes,
                      "read-backs", "writes"));
  out.push_back(count("imca.smcache.blocks_published",
                      a.smcache.blocks_published - b.smcache.blocks_published));
  out.push_back(count("imca.smcache.purges", a.smcache.purges - b.smcache.purges));

  // gluster: brick offload and protocol retries.
  out.push_back(ratio("gluster.server.fops_per_op", a.server_fops - b.server_fops,
                      n, "brick fops", "fsapi calls"));
  out.push_back(count("gluster.protocol_client.retries",
                      a.protocol_retries - b.protocol_retries));

  // buffer: copy ledger of the segment layer.
  std::uint64_t payload = 0;
  for (const auto x : r.bytes) payload += x;
  out.push_back(ratio("buffer.bytes_copied_per_byte",
                      a.buffer.bytes_copied - b.buffer.bytes_copied, payload,
                      "bytes copied", "payload bytes"));
  out.push_back(ratio("buffer.segments_per_fop",
                      a.buffer.segments_allocated - b.buffer.segments_allocated,
                      n, "segments allocated", "fops"));
  out.push_back(count("buffer.gather_calls",
                      a.buffer.gather_calls - b.buffer.gather_calls));
  return out;
}

std::vector<std::string> reconcile(const IterationResult& r) {
  std::vector<std::string> bad;
  // 1. Span durations sum to the per-kind latency sums the report uses.
  std::array<std::uint64_t, kKinds> span_sum = {};
  std::array<std::uint64_t, kKinds> span_n = {};
  for (const Span& s : r.spans) {
    const auto k = static_cast<std::size_t>(s.kind);
    span_sum[k] += s.sim_end - s.sim_start;
    ++span_n[k];
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::uint64_t sum = 0;
    for (const auto x : r.latency[k]) sum += x;
    if (span_n[k] != r.latency[k].size() || span_sum[k] != sum) {
      bad.push_back(std::string("spans disagree with the ") +
                    kind_name(static_cast<OpKind>(k)) + " latency mean");
    }
  }
  // 2. Every station: utilization * elapsed * servers == busy time. (Busy
  //    time is charged when service is reserved, so a window may hold work
  //    that completes after it, e.g. a write-back flush.)
  auto check = [&](const StationSnap& a, const std::string& what) {
    const double busy = static_cast<double>(a.busy);
    const double implied = a.utilization * static_cast<double>(r.after.now) *
                           static_cast<double>(a.servers);
    if (std::abs(implied - busy) > 1e-9 * std::max(busy, 1.0) + 1.0) {
      bad.push_back(what + ": utilization*elapsed*servers != busy");
    }
  };
  for (const Role role : {kClientRole, kServerRole, kMcdRole}) {
    for (const Station st : {kCpu, kNicTx, kNicRx}) {
      const auto& a = r.after.nodes[role][st];
      for (std::size_t i = 0; i < a.size(); ++i) {
        check(a[i], std::string(kRoleNames[role]) + "." + kStationNames[st] +
                        "[" + std::to_string(i) + "]");
      }
    }
  }
  for (std::size_t i = 0; i < r.after.disks.size(); ++i) {
    check(r.after.disks[i], "disk[" + std::to_string(i) + "]");
  }
  // 3. Hit counts never exceed their lookup counts.
  if (r.after.mcd.get_hits - r.before.mcd.get_hits >
      r.after.mcd.cmd_get - r.before.mcd.cmd_get) {
    bad.push_back("memcache hits exceed gets");
  }
  if (r.after.cmcache.blocks_hit - r.before.cmcache.blocks_hit >
      r.after.cmcache.blocks_requested - r.before.cmcache.blocks_requested) {
    bad.push_back("cmcache block hits exceed blocks requested");
  }
  return bad;
}

}  // namespace perfbench
