#include "harness/runner.h"

#include <algorithm>
#include <chrono>

#include "cluster/testbed.h"
#include "common/errc.h"
#include "harness/oracle.h"
#include "sim/sync.h"

namespace perfbench {
namespace {

using imca::SimTime;
using imca::cluster::GlusterTestbed;
using imca::fsapi::OpenFile;

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(host_ns() - start_ns) * 1e-9;
}

StationSnap snap(const imca::sim::FifoResource& r) {
  return {r.total_busy(), r.total_queued(), r.requests(), r.servers(),
          r.utilization()};
}

// Testbed node names: "client<i>", "mcd<i>", and the brick(s).
Role role_of(const std::string& name) {
  if (name.rfind("client", 0) == 0) return kClientRole;
  if (name.rfind("mcd", 0) == 0) return kMcdRole;
  return kServerRole;
}

void add(imca::mcclient::ClientStats& to,
         const imca::mcclient::ClientStats& s) {
  to.gets += s.gets;
  to.hits += s.hits;
  to.misses += s.misses;
  to.sets += s.sets;
  to.deletes += s.deletes;
  to.retries += s.retries;
}

void add(imca::core::CmCacheStats& to, const imca::core::CmCacheStats& s) {
  to.stat_hits += s.stat_hits;
  to.stat_misses += s.stat_misses;
  to.reads_from_cache += s.reads_from_cache;
  to.reads_partial += s.reads_partial;
  to.reads_forwarded += s.reads_forwarded;
  to.blocks_requested += s.blocks_requested;
  to.blocks_hit += s.blocks_hit;
  to.range_fetches += s.range_fetches;
  to.blocks_repaired += s.blocks_repaired;
  to.coalesced_waiters += s.coalesced_waiters;
}

Counters snapshot(GlusterTestbed& tb) {
  Counters c;
  c.now = tb.loop().now();
  c.events = tb.loop().events_processed();
  c.messages = tb.fabric().messages_sent();
  for (imca::net::NodeId id = 0; id < tb.fabric().node_count(); ++id) {
    auto& node = tb.fabric().node(id);
    auto& role = c.nodes[role_of(node.name())];
    role[kCpu].push_back(snap(node.cpu()));
    role[kNicTx].push_back(snap(node.nic_tx()));
    role[kNicRx].push_back(snap(node.nic_rx()));
  }
  for (std::size_t b = 0; b < tb.n_brick_servers(); ++b) {
    auto& dev = tb.brick(b).device();
    for (std::size_t d = 0; d < dev.raid().members(); ++d) {
      c.disks.push_back(snap(dev.raid().disk(d).head()));
    }
    c.page_cache_hits += dev.cache().hits();
    c.page_cache_misses += dev.cache().misses();
  }
  c.mcd = tb.mcd_totals();
  for (std::size_t i = 0; i < tb.n_clients(); ++i) {
    if (tb.imca_enabled()) {
      add(c.cmcache, tb.cmcache(i).stats());
      add(c.mcclient, tb.cmcache(i).mcds().stats());
    }
    c.protocol_retries += tb.gluster_client(i).protocol_totals().retries;
  }
  if (auto* sm = tb.smcache()) {
    c.smcache = sm->stats();
    add(c.mcclient, sm->mcds().stats());
  }
  c.server_fops = tb.server_totals().fops;
  c.buffer = imca::buffer_stats();
  return c;
}

struct Ctx {
  const Workload& w;
  GlusterTestbed& tb;
  Oracle& oracle;
  IterationResult& r;
  bool trace;
  imca::sim::Barrier barrier;
  std::vector<std::vector<OpenFile>> handles;  // [client][file]
  std::string setup_error;
  std::uint64_t next_op_id = 0;
};

void fail(IterationResult& r, std::string why) {
  ++r.failed;
  if (r.failures.size() < 8) r.failures.push_back(std::move(why));
}

std::string error_of(const char* what, const std::string& path,
                     imca::Errc e) {
  return std::string(what) + " " + path + ": " +
         std::string(imca::errc_name(e));
}

imca::sim::Task<void> setup_client(Ctx& ctx, std::size_t c) {
  auto& fs = ctx.tb.client(c);
  const Workload& w = ctx.w;
  for (std::uint32_t f = 0; f < w.files.size(); ++f) {
    const FileSpec& spec = w.files[f];
    if (spec.owner != c) continue;
    auto h = co_await fs.create(spec.path);
    if (!h) {
      ctx.setup_error = error_of("create", spec.path, h.error());
      co_return;
    }
    for (std::uint64_t off = 0; off < spec.populate_bytes;
         off += w.populate_chunk) {
      const std::uint64_t len =
          std::min(w.populate_chunk, spec.populate_bytes - off);
      auto n = co_await fs.write(*h, off, ctx.oracle.content(f, off, len, 1));
      if (!n || *n != len) {
        ctx.setup_error = "populate " + spec.path + " failed";
        co_return;
      }
    }
    if (w.handles == Handles::kOwnerKeeps) {
      ctx.handles[c][f] = *h;
    } else if (auto closed = co_await fs.close(*h); !closed) {
      ctx.setup_error = error_of("close", spec.path, closed.error());
      co_return;
    }
  }
  co_await ctx.barrier.arrive_and_wait();
  if (w.handles != Handles::kOpenAll) co_return;
  for (std::uint32_t f = 0; f < w.files.size(); ++f) {
    auto h = co_await fs.open(w.files[f].path);
    if (!h) {
      ctx.setup_error = error_of("open", w.files[f].path, h.error());
      co_return;
    }
    ctx.handles[c][f] = *h;
  }
}

imca::sim::Task<void> timed_client(Ctx& ctx, std::size_t c) {
  auto& loop = ctx.tb.loop();
  auto& fs = ctx.tb.client(c);
  const Workload& w = ctx.w;
  IterationResult& r = ctx.r;
  if (w.start_delay[c] > 0) co_await loop.sleep(w.start_delay[c]);
  for (const Op& op : w.ops[c]) {
    if (op.kind == OpKind::kBarrier) {
      co_await ctx.barrier.arrive_and_wait();
      continue;
    }
    const std::uint64_t op_id = ctx.next_op_id++;
    const std::string& path = w.files[op.file].path;
    const std::uint64_t offset = op.chunk * w.io_bytes;
    const SimTime t0 = loop.now();
    const std::int64_t h0 = ctx.trace ? host_ns() : 0;
    std::string why;
    std::uint64_t bytes = 0;
    if (op.kind == OpKind::kStat) {
      const auto win = ctx.oracle.window(op.file, 0);
      auto st = co_await fs.stat(path);
      why = st ? ctx.oracle.check_stat(op.file, win, st->size)
               : error_of("stat", path, st.error());
    } else if (op.kind == OpKind::kRead) {
      if (r.first_read == 0) r.first_read = t0;
      const auto win = ctx.oracle.window(op.file, op.chunk);
      auto data = co_await fs.read(ctx.handles[c][op.file], offset, w.io_bytes);
      if (data) {
        bytes = data->size();
        why = ctx.oracle.check_read(op.file, op.chunk, win, *data);
      } else {
        why = error_of("read", path, data.error());
      }
    } else {
      const auto version = ctx.oracle.begin_write(op.file, op.chunk);
      auto n = co_await fs.write(
          ctx.handles[c][op.file], offset,
          ctx.oracle.content(op.file, offset, w.io_bytes, version));
      const bool ok = n && *n == w.io_bytes;
      ctx.oracle.end_write(op.file, op.chunk, version, ok);
      bytes = ok ? w.io_bytes : 0;
      if (!n) why = error_of("write", path, n.error());
      else if (!ok) why = "short write to " + path;
    }
    const SimTime t1 = loop.now();
    const auto k = static_cast<std::size_t>(op.kind);
    r.latency[k].push_back(t1 - t0);
    r.bytes[k] += bytes;
    ++r.attempted;
    if (op.kind == OpKind::kRead) r.last_read_end = std::max(r.last_read_end, t1);
    if (!why.empty()) fail(r, why);
    if (ctx.trace) {
      r.spans.push_back({op_id, static_cast<std::uint32_t>(c), op.kind, t0, t1,
                         h0, host_ns()});
    }
  }
  r.makespan = std::max(r.makespan, loop.now() - r.phase_start);
}

}  // namespace

IterationResult run_iteration(const Workload& w, bool trace) {
  IterationResult r;
  r.n_clients = w.n_clients();
  Oracle oracle(w);
  const std::int64_t setup_start = host_ns();
  GlusterTestbed tb(w.config);
  Ctx ctx{w, tb, oracle, r, trace,
          imca::sim::Barrier(tb.loop(), w.n_clients()), {}, {}, 0};
  if (w.handles != Handles::kNone) {
    ctx.handles.assign(w.n_clients(),
                       std::vector<OpenFile>(w.files.size()));
  }
  for (std::size_t c = 0; c < w.n_clients(); ++c) {
    tb.loop().spawn(setup_client(ctx, c));
  }
  tb.loop().run();
  r.setup_host_s = seconds_since(setup_start);
  if (!ctx.setup_error.empty()) {
    ++r.attempted;  // the set-up call that failed
    fail(r, "set-up: " + ctx.setup_error);
    return r;
  }
  for (std::uint32_t f = 0; f < w.files.size(); ++f) {
    oracle.mark_populated(f, w.files[f].populate_bytes);
  }

  r.before = snapshot(tb);
  r.mcd_items_at_start = r.before.mcd.curr_items;
  r.phase_start = tb.loop().now();
  std::array<std::size_t, kKinds> per_kind = {};
  for (const auto& stream : w.ops) {
    for (const Op& op : stream) {
      const auto k = static_cast<std::size_t>(op.kind);
      if (k < kKinds) ++per_kind[k];
    }
  }
  for (std::size_t k = 0; k < kKinds; ++k) r.latency[k].reserve(per_kind[k]);
  if (trace) r.spans.reserve(w.calls());
  const std::int64_t timed_start = host_ns();
  for (std::size_t c = 0; c < w.n_clients(); ++c) {
    tb.loop().spawn(timed_client(ctx, c));
  }
  tb.loop().run();
  r.timed_host_s = seconds_since(timed_start);
  r.after = snapshot(tb);
  if (r.attempted != w.calls()) {
    fail(r, "timed phase stopped after " + std::to_string(r.attempted) +
                " of " + std::to_string(w.calls()) + " calls");
  }
  return r;
}

}  // namespace perfbench
