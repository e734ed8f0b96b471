// imcasim — command-line driver for ad-hoc experiments on the simulated
// testbeds, without writing C++.
//
//   imcasim --system=imca --mcds=4 --clients=32 --workload=latency
//   imcasim --system=gluster --clients=8 --workload=iozone --file-mb=64
//   imcasim --system=lustre --ds=4 --cold --workload=latency --shared
//   imcasim --system=nfs --transport=gige --workload=iozone --clients=4
//   imcasim --system=imca --mcds=2 --workload=stat --files=20000 --csv
//
// Run `imcasim --help` for every knob. All runs are deterministic.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/testbed.h"
#include "common/buffer.h"
#include "common/parse_number.h"
#include "common/stat_fields.h"
#include "common/table.h"
#include "imca/block_mapper.h"
#include "workload/iozone.h"
#include "workload/latency_bench.h"
#include "workload/stat_bench.h"

namespace {

using namespace imca;

struct Options {
  std::string system = "imca";     // imca | gluster | lustre | nfs
  std::string workload = "latency";  // latency | stat | iozone | shared
  std::string transport = "ipoib";   // ipoib | rdma | gige (fabric-wide)
  std::size_t clients = 4;
  std::size_t mcds = 2;           // imca only
  std::size_t bricks = 1;         // imca/gluster: distribute groups
  std::size_t replicas = 1;       // imca/gluster: AFR replicas per group
  std::size_t ds = 1;             // lustre only
  std::uint64_t block = 2 * kKiB; // IMCa block size
  std::string hash = "crc32";     // crc32 | modulo | consistent
  bool threaded = false;          // SMCache worker thread
  bool rdma_cache = false;        // verbs path to the MCDs
  bool no_partial_hit = false;    // paper baseline: forward on any miss
  bool cold = false;              // lustre: unmount before reads
  std::uint64_t max_record = 64 * kKiB;
  std::size_t records = 128;
  std::size_t files = 4096;       // stat workload
  std::uint64_t file_bytes = 32 * kMiB;   // iozone, --file-mb
  std::uint64_t mcd_bytes = 0;           // --mcd-mb; 0 = default 6 GB
  std::uint64_t server_cache_bytes = 0;  // --server-cache-mb; 0 = default
  bool csv = false;

  // --- MCD fault plan (imca only; DESIGN.md §5d) ---
  std::uint64_t fault_seed = 1;
  double fault_drop = 0;     // P(request lost before the daemon sees it)
  double fault_timeout = 0;  // P(reply lost after the daemon executed)
  double fault_slow = 0;     // P(reply delayed by --fault-slow-ms)
  double fault_short = 0;    // P(reply truncated to a strict prefix)
  SimDuration fault_slow_delay = 2 * kMilli;  // --fault-slow-ms
  std::vector<net::CrashEvent> crashes;  // --crash-mcd=i@ms[:ms]
  // --mcd-timeout-ms. Unset = auto: 2 ms whenever any fault flag is
  // present, otherwise off.
  std::optional<SimDuration> mcd_timeout;

  // --- durable write-back (imca only; DESIGN.md §5j) ---
  bool writeback = false;          // absorb writes into the MCD tier
  std::size_t wb_replicas = 2;     // K dirty copies per absorbed write
  std::size_t wb_quorum = 2;       // MCD acks required before the write acks
  SimDuration wb_flush_delay = 0;  // coalescing window (--wb-flush-delay)

  // --- file-server fault plan (imca/gluster; DESIGN.md §5f) ---
  std::vector<net::ServerCrashEvent> server_crashes;  // --crash-server=ms[:ms]
  SimDuration server_slow = 0;        // --server-slow=MS
  SimDuration wb_flush_deadline = 0;  // --wb-flush-deadline=MS

  bool any_fault() const {
    return fault_drop > 0 || fault_timeout > 0 || fault_slow > 0 ||
           fault_short > 0 || !crashes.empty();
  }
  bool any_server_fault() const {
    return !server_crashes.empty() || server_slow > 0 ||
           wb_flush_deadline > 0;
  }
};

[[noreturn]] void usage(int code) {
  std::fprintf(
      code ? stderr : stdout,
      "imcasim — drive the IMCa reproduction testbeds from the shell\n"
      "\n"
      "  --system=imca|gluster|lustre|nfs   file system under test\n"
      "  --workload=latency|stat|iozone|shared\n"
      "  --transport=ipoib|rdma|gige        fabric transport (default ipoib)\n"
      "  --clients=N                        client nodes (default 4)\n"
      "  --mcds=N          cache daemons (imca; default 2)\n"
      "  --bricks=N        distribute groups (imca/gluster; default 1)\n"
      "  --replicas=K      AFR replicas per group (imca/gluster; default 1;\n"
      "                    the grid runs N*K brick servers)\n"
      "  --ds=N            data servers (lustre; default 1)\n"
      "  --block=BYTES     IMCa block size (default 2048; block, key and\n"
      "                    item header must fit a 1 MiB memcached item)\n"
      "  --hash=crc32|modulo|consistent     key->MCD placement\n"
      "                    (consistent: at most 16 MCDs, the ring size)\n"
      "  --threaded        SMCache worker-thread updates\n"
      "  --rdma-cache      reach the MCDs over native verbs\n"
      "  --no-partial-hit  forward whole reads on any block miss (paper)\n"
      "  --cold            lustre: drop client caches before reads\n"
      "  --max-record=BYTES  latency sweep ceiling (default 65536)\n"
      "  --records=N         records per size (default 128)\n"
      "  --files=N           stat workload file count (default 4096)\n"
      "  --file-mb=N         iozone per-client file size (default 32)\n"
      "  --mcd-mb=N          per-daemon memory (default 6144)\n"
      "  --server-cache-mb=N server page cache\n"
      "  --csv               machine-readable tables\n"
      "\n"
      "MCD fault injection (imca only; all runs stay deterministic):\n"
      "  --fault-seed=N      PRNG seed for the per-call fault draws\n"
      "  --fault-drop=P      drop requests (no daemon side effect)\n"
      "  --fault-timeout=P   drop replies (side effect applied, reply lost)\n"
      "  --fault-slow=P      delay replies by --fault-slow-ms (default 2)\n"
      "  --fault-short=P     truncate replies (torn protocol frames)\n"
      "  --crash-mcd=i@ms[:ms]  kill daemon i at `ms`, optionally restart\n"
      "                      at the second `ms` (repeatable)\n"
      "  --mcd-timeout-ms=N  per-op MCD deadline; defaults to 2 when any\n"
      "                      fault flag is given, 0 (off) otherwise\n"
      "\n"
      "file-server fault injection (imca and gluster; DESIGN.md §5f):\n"
      "  --crash-server=ms[:ms]  kill the brick at `ms`, optionally restart\n"
      "                      at the second `ms` (repeatable); arms the\n"
      "                      client deadline/retry/replay machinery\n"
      "  --crash-brick=i@ms[:ms]  kill brick i of the grid (row-major:\n"
      "                      group g, replica r is i = g*K + r) at `ms`,\n"
      "                      optionally restart (repeatable)\n"
      "  --server-slow=MS    ~35%% of brick replies crawl in MS late —\n"
      "                      forces attempt timeouts and replay dedup\n"
      "  --wb-flush-deadline=MS  server-side write-behind in flush_before_ack\n"
      "                      mode with an MS flush deadline\n"
      "  --writeback         absorb writes into the MCD tier: K-way dirty\n"
      "                      replication, epoch-ordered background flush\n"
      "                      (imca; arms the 2 ms MCD deadline by default)\n"
      "  --wb-replicas=K     dirty copies per absorbed write (default 2)\n"
      "  --wb-quorum=K       MCD acks required before a write acks\n"
      "                      (default 2; 1..min(--wb-replicas, --mcds);\n"
      "                      short of it, writes degrade to write-through\n"
      "                      and are counted)\n"
      "  --wb-flush-delay=MS coalescing window before a path's first flush\n"
      "                      pass (barriers bypass it; default 0)\n");
  std::exit(code);
}

std::optional<std::string> flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    return std::string(arg + n + 1);
  }
  return std::nullopt;
}

[[noreturn]] void bad_value(const char* name, const char* want) {
  std::fprintf(stderr, "%s wants %s\n", name, want);
  usage(2);
}

// `i@ms[:ms]` when `indexed`, else `ms[:ms]`: what dies, when, and when it
// comes back.
struct CrashSpec {
  std::size_t index = 0;
  SimTime at = 0;
  std::optional<SimTime> restart_at;
};

std::optional<CrashSpec> parse_crash(std::string_view v, bool indexed) {
  CrashSpec c;
  if (indexed) {
    const auto at = v.find('@');
    if (at == v.npos || !parse_number(v.substr(0, at), c.index)) {
      return std::nullopt;
    }
    v.remove_prefix(at + 1);
  }
  const auto colon = v.find(':');
  if (!parse_scaled(v.substr(0, colon), kMilli, c.at)) return std::nullopt;
  if (colon != v.npos) {
    SimTime restart = 0;
    if (!parse_scaled(v.substr(colon + 1), kMilli, restart)) {
      return std::nullopt;
    }
    c.restart_at = restart;
  }
  return c;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) usage(0);
    if (!std::strcmp(a, "--threaded")) { o.threaded = true; continue; }
    if (!std::strcmp(a, "--rdma-cache")) { o.rdma_cache = true; continue; }
    if (!std::strcmp(a, "--no-partial-hit")) { o.no_partial_hit = true; continue; }
    if (!std::strcmp(a, "--writeback")) { o.writeback = true; continue; }
    if (!std::strcmp(a, "--cold")) { o.cold = true; continue; }
    if (!std::strcmp(a, "--csv")) { o.csv = true; continue; }
    bool matched = false;
    const auto str = [&](const char* name, std::string& out) {
      if (auto v = flag_value(a, name)) { out = *v; matched = true; }
    };
    const auto num = [&](const char* name, auto& out) {
      if (auto v = flag_value(a, name)) {
        if (!parse_number(*v, out)) bad_value(name, "a non-negative integer");
        matched = true;
      }
    };
    // A count of `unit`s, stored as the product (bytes or nanoseconds).
    const auto scaled = [&](const char* name, std::uint64_t unit, auto& out) {
      if (auto v = flag_value(a, name)) {
        std::uint64_t product = 0;
        if (!parse_scaled(*v, unit, product)) {
          bad_value(name, "a non-negative integer that does not overflow");
        }
        out = product;
        matched = true;
      }
    };
    const auto prob = [&](const char* name, double& out) {
      if (auto v = flag_value(a, name)) {
        // Written so that NaN fails the range check too.
        if (!parse_number(*v, out) || !(out >= 0.0 && out <= 1.0)) {
          bad_value(name, "a probability in [0,1]");
        }
        matched = true;
      }
    };
    if (auto v = flag_value(a, "--crash-mcd")) {
      const auto c = parse_crash(*v, /*indexed=*/true);
      if (!c) bad_value("--crash-mcd", "i@ms[:ms]");
      o.crashes.push_back({.mcd = c->index, .at = c->at,
                           .restart_at = c->restart_at});
      continue;
    }
    if (auto v = flag_value(a, "--crash-brick")) {
      const auto c = parse_crash(*v, /*indexed=*/true);
      if (!c) bad_value("--crash-brick", "i@ms[:ms]");
      o.server_crashes.push_back({.at = c->at, .restart_at = c->restart_at,
                                  .brick = c->index});
      continue;
    }
    if (auto v = flag_value(a, "--crash-server")) {
      const auto c = parse_crash(*v, /*indexed=*/false);
      if (!c) bad_value("--crash-server", "ms[:ms]");
      o.server_crashes.push_back({.at = c->at, .restart_at = c->restart_at});
      continue;
    }
    str("--system", o.system);
    str("--workload", o.workload);
    str("--transport", o.transport);
    str("--hash", o.hash);
    num("--clients", o.clients);
    num("--mcds", o.mcds);
    num("--bricks", o.bricks);
    num("--replicas", o.replicas);
    num("--ds", o.ds);
    num("--block", o.block);
    num("--max-record", o.max_record);
    num("--records", o.records);
    num("--files", o.files);
    scaled("--file-mb", kMiB, o.file_bytes);
    scaled("--mcd-mb", kMiB, o.mcd_bytes);
    scaled("--server-cache-mb", kMiB, o.server_cache_bytes);
    num("--fault-seed", o.fault_seed);
    scaled("--fault-slow-ms", kMilli, o.fault_slow_delay);
    scaled("--mcd-timeout-ms", kMilli, o.mcd_timeout);
    scaled("--server-slow", kMilli, o.server_slow);
    num("--wb-replicas", o.wb_replicas);
    num("--wb-quorum", o.wb_quorum);
    scaled("--wb-flush-delay", kMilli, o.wb_flush_delay);
    scaled("--wb-flush-deadline", kMilli, o.wb_flush_deadline);
    prob("--fault-drop", o.fault_drop);
    prob("--fault-timeout", o.fault_timeout);
    prob("--fault-slow", o.fault_slow);
    prob("--fault-short", o.fault_short);
    if (!matched) {
      std::fprintf(stderr, "unknown flag: %s\n\n", a);
      usage(2);
    }
  }
  if (o.clients == 0) usage(2);
  if (o.block == 0 || o.block > core::kMaxBlockSize) {
    const std::string want =
        "a block size in [1, " + std::to_string(core::kMaxBlockSize) + "]";
    bad_value("--block", want.c_str());
  }
  if (o.hash == "consistent" && o.mcds > core::kMaxMcds) {
    // The ring holds kMaxMcds daemons; any beyond it would get no keys.
    const std::string want = "at most " + std::to_string(core::kMaxMcds) +
                             " daemons with --hash=consistent";
    bad_value("--mcds", want.c_str());
  }
  return o;
}

net::TransportParams transport_of(const Options& o) {
  if (o.transport == "rdma") return net::ib_rdma();
  if (o.transport == "gige") return net::gige();
  if (o.transport == "ipoib") return net::ipoib_rc();
  std::fprintf(stderr, "unknown transport: %s\n", o.transport.c_str());
  usage(2);
}

core::HashScheme hash_of(const Options& o) {
  if (o.hash == "crc32") return core::HashScheme::kCrc32;
  if (o.hash == "modulo") return core::HashScheme::kModulo;
  if (o.hash == "consistent") return core::HashScheme::kConsistent;
  std::fprintf(stderr, "unknown hash: %s\n", o.hash.c_str());
  usage(2);
}

// Any of the four systems behind one set of FileSystemClient pointers.
struct Rig {
  std::unique_ptr<cluster::GlusterTestbed> gluster;
  std::unique_ptr<cluster::LustreTestbed> lustre;
  std::unique_ptr<cluster::NfsTestbed> nfs;

  sim::EventLoop& loop() {
    if (gluster) return gluster->loop();
    if (lustre) return lustre->loop();
    return nfs->loop();
  }
  std::vector<fsapi::FileSystemClient*> clients() {
    std::vector<fsapi::FileSystemClient*> out;
    const auto grab = [&out](auto& tb) {
      for (std::size_t i = 0; i < tb.n_clients(); ++i) {
        out.push_back(&tb.client(i));
      }
    };
    if (gluster) grab(*gluster);
    if (lustre) grab(*lustre);
    if (nfs) grab(*nfs);
    return out;
  }
};

Rig build(const Options& o) {
  Rig rig;
  if (o.system == "imca" || o.system == "gluster") {
    cluster::GlusterTestbedConfig cfg;
    cfg.n_clients = o.clients;
    cfg.n_mcds = o.system == "imca" ? o.mcds : 0;
    if (o.bricks == 0 || o.replicas == 0) {
      std::fprintf(stderr, "--bricks/--replicas want values >= 1\n");
      usage(2);
    }
    cfg.n_bricks = o.bricks;
    cfg.n_replicas = o.replicas;
    cfg.transport = transport_of(o);
    cfg.imca.block_size = o.block;
    cfg.imca.hash = hash_of(o);
    cfg.imca.threaded_updates = o.threaded;
    cfg.imca.rdma_cache_path = o.rdma_cache;
    cfg.imca.partial_hit_reads = !o.no_partial_hit;
    if (o.writeback) {
      if (o.system != "imca" || o.mcds == 0) {
        std::fprintf(stderr, "--writeback needs --system=imca with MCDs\n");
        usage(2);
      }
      // Each write lands on min(K, MCDs) daemons; a quorum above that can
      // never be met, and a quorum of 0 acks with no copy at all.
      if (o.wb_quorum == 0 ||
          o.wb_quorum > std::min(o.wb_replicas, o.mcds)) {
        bad_value("--wb-quorum", "1 <= Q <= min(--wb-replicas, --mcds)");
      }
      cfg.imca.writeback = true;
      cfg.imca.wb_replicas = o.wb_replicas;
      cfg.imca.wb_quorum = o.wb_quorum;
      cfg.imca.wb_flush_delay = o.wb_flush_delay;
    }
    if (o.mcd_bytes) cfg.mcd_memory = o.mcd_bytes;
    if (o.server_cache_bytes) {
      cfg.server.page_cache_bytes = o.server_cache_bytes;
    }
    for (const auto& c : o.crashes) {
      if (c.mcd >= cfg.n_mcds) {
        std::fprintf(stderr, "--crash-mcd: daemon %zu out of range (%zu MCDs)\n",
                     c.mcd, cfg.n_mcds);
        usage(2);
      }
    }
    cfg.faults.seed = o.fault_seed;
    cfg.faults.spec.drop_request = o.fault_drop;
    cfg.faults.spec.drop_reply = o.fault_timeout;
    cfg.faults.spec.slow_reply = o.fault_slow;
    cfg.faults.spec.short_read = o.fault_short;
    cfg.faults.spec.slow_delay = o.fault_slow_delay;
    cfg.faults.crashes = o.crashes;
    for (const auto& c : o.server_crashes) {
      if (c.brick >= o.bricks * o.replicas) {
        std::fprintf(stderr,
                     "--crash-brick: brick %zu out of range (%zux%zu grid)\n",
                     c.brick, o.bricks, o.replicas);
        usage(2);
      }
    }
    cfg.faults.server_crashes = o.server_crashes;
    if (o.server_slow > 0) {
      cfg.faults.server_spec.slow_reply = 0.35;
      cfg.faults.server_spec.slow_delay = o.server_slow;
    }
    if (o.wb_flush_deadline > 0) {
      cfg.server.write_behind = true;
      cfg.server.wb.flush_before_ack = true;
      cfg.server.wb.flush_deadline = o.wb_flush_deadline;
    }
    if (o.any_server_fault()) {
      // Brick faults without retries surface as hard workload errors; arm
      // the deadline/retry/replay machinery with the fault-matrix policy.
      // The attempt timeout must clear one cold disk access (~12 ms).
      // A replicated mount is SUPPOSED to give up on a dead minority and
      // commit on the survivors, so it runs the brick-matrix deadline
      // instead of riding whole crash windows out on retries.
      cfg.client.protocol.op_deadline =
          o.replicas > 1 ? 60 * kMilli : 400 * kMilli;
      cfg.client.protocol.attempt_timeout =
          o.replicas > 1 ? 20 * kMilli : 40 * kMilli;
      cfg.client.protocol.backoff = {1 * kMilli, 8 * kMilli};
      cfg.client.protocol.probe_interval = 5 * kMilli;
    }
    if (o.mcd_timeout) {
      cfg.imca.mcd_op_timeout = *o.mcd_timeout;
    } else if (cfg.faults.active() || o.writeback) {
      // Faults without a deadline would ride the transport's 200 ms give-up;
      // arm the failover machinery with a sane default instead.
      cfg.imca.mcd_op_timeout = 2 * kMilli;
    }
    rig.gluster = std::make_unique<cluster::GlusterTestbed>(cfg);
  } else if (o.system == "lustre") {
    if (o.any_fault() || o.any_server_fault()) {
      std::fprintf(stderr,
                   "fault flags only apply to --system=imca|gluster\n");
      usage(2);
    }
    cluster::LustreTestbedConfig cfg;
    cfg.n_clients = o.clients;
    cfg.n_ds = o.ds;
    cfg.transport = transport_of(o);
    if (o.server_cache_bytes) cfg.ds.page_cache_bytes = o.server_cache_bytes;
    rig.lustre = std::make_unique<cluster::LustreTestbed>(cfg);
  } else if (o.system == "nfs") {
    if (o.any_fault() || o.any_server_fault()) {
      std::fprintf(stderr,
                   "fault flags only apply to --system=imca|gluster\n");
      usage(2);
    }
    cluster::NfsTestbedConfig cfg;
    cfg.n_clients = o.clients;
    cfg.transport = transport_of(o);
    if (o.server_cache_bytes) {
      cfg.server.page_cache_bytes = o.server_cache_bytes;
    }
    rig.nfs = std::make_unique<cluster::NfsTestbed>(cfg);
  } else {
    std::fprintf(stderr, "unknown system: %s\n", o.system.c_str());
    usage(2);
  }
  return rig;
}

void print_table(const Table& t, const Options& o) {
  if (o.csv) {
    t.print_csv();
  } else {
    t.print();
  }
}

int run_latency(Rig& rig, const Options& o, bool shared) {
  workload::LatencyOptions opt;
  opt.max_record = o.max_record;
  opt.records_per_size = o.records;
  opt.shared_file = shared;
  if (o.cold && rig.lustre) {
    opt.before_read_phase = [&rig](std::size_t) { rig.lustre->cold_all(); };
  }
  const auto series =
      workload::run_latency_benchmark(rig.loop(), rig.clients(), opt);
  Table t({"record_bytes", "read_us", "write_us"});
  for (const auto& [r, read_ns] : series.read_ns) {
    const auto w = series.write_ns.find(r);
    t.add_row({Table::cell(r), Table::cell(read_ns / 1e3),
               w == series.write_ns.end() ? "-" : Table::cell(w->second / 1e3)});
  }
  print_table(t, o);
  return 0;
}

int run_stat(Rig& rig, const Options& o) {
  workload::StatOptions opt;
  opt.n_files = o.files;
  const auto r = workload::run_stat_benchmark(rig.loop(), rig.clients(), opt);
  Table t({"metric", "value"});
  t.add_row({"files", Table::cell(static_cast<std::uint64_t>(o.files))});
  t.add_row({"clients", Table::cell(static_cast<std::uint64_t>(o.clients))});
  t.add_row({"total_stats", Table::cell(r.total_stats)});
  t.add_row({"max_node_seconds", Table::cell(r.max_node_seconds, 4)});
  t.add_row({"stats_per_second",
             Table::cell(static_cast<double>(r.total_stats) /
                             r.max_node_seconds,
                         0)});
  print_table(t, o);
  return 0;
}

int run_iozone(Rig& rig, const Options& o) {
  workload::IozoneOptions opt;
  opt.file_bytes = o.file_bytes;
  if (o.cold && rig.lustre) {
    opt.before_read_phase = [&rig](std::size_t) { rig.lustre->cold_all(); };
  }
  const auto r = workload::run_iozone(rig.loop(), rig.clients(), opt);
  Table t({"metric", "value"});
  t.add_row({"threads", Table::cell(static_cast<std::uint64_t>(o.clients))});
  t.add_row({"file_mb_per_thread",
             Table::cell(o.file_bytes / kMiB)});
  t.add_row({"write_MBps", Table::cell(r.aggregate_write_mbps, 1)});
  t.add_row({"read_MBps", Table::cell(r.aggregate_read_mbps, 1)});
  print_table(t, o);
  return 0;
}

template <class S>
void report(std::string_view prefix, const S& s) {
  std::fputs(stats_line(prefix, s).c_str(), stdout);
}

// One `# <prefix>: name=value ...` line per stats struct whose component
// exists in this rig, every field in declaration order (README, "Reading
// the imcasim report").
void print_report(Rig& rig, const Options& o) {
  if (cluster::GlusterTestbed* tb = rig.gluster.get()) {
    if (tb->imca_enabled()) {
      core::CmCacheStats cm;
      core::FaultStats faults;
      mcclient::ClientStats mc;
      for (std::size_t i = 0; i < tb->n_clients(); ++i) {
        cm += tb->cmcache(i).stats();
        faults += tb->cmcache(i).fault_stats();
        mc += tb->cmcache(i).mcds().stats();
      }
      report("MCD bank", tb->mcd_totals());
      report("CMCache", cm);
      report("CMCache faults", faults);
      report("mcclient", mc);
      report("SMCache", tb->smcache_totals());
    }
    if (const auto* inj = tb->fault_injector()) {
      report("faults injected", inj->stats());
    }
    gluster::ProtocolClientStats pc;
    gluster::ReplicateStats rs;
    for (std::size_t i = 0; i < tb->n_clients(); ++i) {
      pc += tb->gluster_client(i).protocol_totals();
      rs += tb->gluster_client(i).replicate_totals();
    }
    report("server", tb->server_totals());
    report("protocol", pc);
    if (o.replicas > 1) report("replicate", rs);
    if (tb->n_brick_servers() > 1) {
      for (std::size_t b = 0; b < tb->n_brick_servers(); ++b) {
        char prefix[48];
        std::snprintf(prefix, sizeof prefix, "brick.%zu.%zu", b / o.replicas,
                      b % o.replicas);
        report(prefix, tb->brick(b).stats());
      }
    }
    if (o.writeback) report("writeback", tb->writeback_totals());
  }
  report("copy_ledger", buffer_stats());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Rig rig = build(o);

  std::printf("# system=%s workload=%s transport=%s clients=%zu",
              o.system.c_str(), o.workload.c_str(), o.transport.c_str(),
              o.clients);
  if (o.system == "imca") {
    std::printf(" mcds=%zu block=%llu hash=%s%s%s", o.mcds,
                static_cast<unsigned long long>(o.block), o.hash.c_str(),
                o.threaded ? " threaded" : "",
                o.rdma_cache ? " rdma-cache" : "");
  }
  if (o.system == "lustre") {
    std::printf(" ds=%zu%s", o.ds, o.cold ? " cold" : "");
  }
  if ((o.system == "imca" || o.system == "gluster") &&
      (o.bricks > 1 || o.replicas > 1)) {
    std::printf(" bricks=%zux%zu", o.bricks, o.replicas);
  }
  std::printf("\n");

  int rc = 2;
  if (o.workload == "latency") {
    rc = run_latency(rig, o, /*shared=*/false);
  } else if (o.workload == "shared") {
    rc = run_latency(rig, o, /*shared=*/true);
  } else if (o.workload == "stat") {
    rc = run_stat(rig, o);
  } else if (o.workload == "iozone") {
    rc = run_iozone(rig, o);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    usage(2);
  }
  print_report(rig, o);
  std::printf("# simulated_time=%s\n",
              format_duration(static_cast<double>(rig.loop().now())).c_str());
  return rc;
}
