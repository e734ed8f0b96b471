// Write-back fault-matrix driver (DESIGN.md §5j): the invariant harness run
// in durable write-back mode against four fault plans for one seed
// (--seed=N) — no-fault, crash-one-MCD-mid-flush, simultaneous MCD + brick
// crash mid-flush, and dirty-quorum-loss (every daemon holding a dirty
// extent dies before the flush).
//
// Exit 0 iff every plan replays with zero UNACCOUNTED oracle mismatches AND:
//   * no mutation was ever applied twice (server duplicate_applies == 0 —
//     flushes travel the ordinary stack, so the (client_id, op_seq) replay
//     window covers them like any write);
//   * the zero-loss plans lose nothing: while >= 1 dirty replica survives,
//     every acked byte reaches the brick (lost_extents == 0);
//   * the loss plan loses something, and ACCOUNTS it: lost_extents > 0 with
//     matching ledger entries, degraded writes counted while the quorum was
//     down — never a silent divergence;
//   * writes were demonstrably absorbed and flushed in every plan, and
//     reads demonstrably crossed the dirty overlay (no vacuous passes);
//   * the crash plans actually disturbed the write-back tier (failed
//     replica stores, degraded writes or rollbacks observed).
//
// The dirty-quorum-loss plan runs 2 daemons with K = 2 and crashes BOTH
// mid-workload: every extent dirty at that instant loses all replicas. The
// harness tolerates divergence on exactly the paths the loss ledger names
// (tolerate_wb_loss) — divergence anywhere else still fails the run.

#include <cstdio>
#include <string>

#include "common/units.h"
#include "harness/workload_harness.h"

namespace {

using imca::kMilli;

struct PlanCase {
  const char* name;
  imca::net::FaultPlan plan;
  std::size_t n_mcds = 3;
  bool tolerate_loss = false;   // loss plan: per-op + sweep checks consult
                                // the loss ledger (and verify_every_op off —
                                // whole-tree sweeps would thrash the drain)
  bool expect_loss = false;     // lost_extents > 0, ledger non-empty
  bool expect_disturbed = false;  // replica_drops + degraded + rollbacks > 0
  bool expect_server_crash = false;  // brick crashed, restarted, was retried
  imca::SimDuration flush_delay = 0;  // wb_flush_delay override
};

// Hand-built trace for the dirty-quorum-loss plan. Generated traces drain
// almost every extent within microseconds (barrier ops are frequent and
// brick writes are cheap), so no fixed crash instant reliably catches dirty
// state across seeds. This trace pins the timeline instead: f0/f1/f2 go
// dirty at t ~ 0 and see NO barrier, while write+close+read rounds on f3
// advance the clock ~12 ms per round (each read is a cold brick read —
// SMCache is off and every write invalidates the read cache), carrying the
// run far past the crash instant with the three files provably dirty.
std::vector<imca::harness::Op> loss_trace(std::uint64_t seed) {
  using imca::harness::Op;
  std::vector<Op> t;
  const auto push = [&t, seed](Op::Kind kind, std::uint32_t file,
                               std::uint64_t offset, std::uint64_t length) {
    Op op;
    op.kind = kind;
    op.file = file;
    op.offset = offset;
    op.length = length;
    op.payload_seed = seed * 1000003 + t.size();
    t.push_back(op);
  };
  push(Op::Kind::kWrite, 0, 0, 8192);
  push(Op::Kind::kWrite, 1, 0, 8192);
  push(Op::Kind::kWrite, 2, 0, 4096);
  push(Op::Kind::kRead, 0, 0, 8192);  // read-your-writes through the overlay
  for (std::uint64_t i = 0; i < 14; ++i) {  // ~14 x 12 ms of clock
    push(Op::Kind::kWrite, 3, i * 4096, 4096);
    push(Op::Kind::kClose, 3, 0, 0);  // barrier: flushes f3 only
    push(Op::Kind::kRead, 3, i * 4096, 4096);
  }
  // Past the daemon restarts: absorption resumes, and the reads hit the
  // engineered divergence (tolerated iff the ledger names the path).
  push(Op::Kind::kWrite, 0, 0, 4096);
  push(Op::Kind::kRead, 1, 0, 8192);
  push(Op::Kind::kRead, 0, 0, 4096);
  return t;
}

imca::harness::ReplayConfig base_config(std::uint64_t seed) {
  imca::harness::ReplayConfig cfg;
  cfg.n_mcds = 3;
  cfg.smcache = true;
  // Durable write-back: K = 2 dirty replicas, ack at 2 (the default closes
  // the K > K_dirty index-visibility window; see writeback.h).
  cfg.imca.writeback = true;
  cfg.imca.wb_replicas = 2;
  cfg.imca.wb_quorum = 2;
  // MCD-tier failover, as in the MCD fault matrix.
  cfg.imca.mcd_op_timeout = 2 * kMilli;
  cfg.imca.mcd_retry_dead_interval = 10 * kMilli;
  // File-server-tier failover: deadline + retry + replay. A cold disk
  // access costs ~12 ms in this model, so the attempt timeout sits above
  // one access and the deadline above a worst-case burst of them.
  cfg.client.protocol.op_deadline = 400 * kMilli;
  cfg.client.protocol.attempt_timeout = 40 * kMilli;
  cfg.client.protocol.backoff = {1 * kMilli, 8 * kMilli};
  cfg.client.protocol.probe_interval = 5 * kMilli;
  cfg.faults.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  if (!imca::harness::parse_matrix_args(argc, argv, seed)) return 2;

  constexpr std::size_t kOps = 120;

  PlanCase cases[4];
  // Healthy baseline: every write absorbs, every extent flushes, nothing
  // degrades and nothing is lost.
  cases[0].name = "no-fault-writeback";

  // One daemon of the K = 2 replica pairs dies at a time (windows far
  // enough apart that the flusher drains between them): every dirty extent
  // keeps >= 1 replica, so the zero-loss invariant must hold exactly.
  cases[1].name = "crash-one-mcd-mid-flush";
  cases[1].plan.crashes.push_back({0, 5 * kMilli, {25 * kMilli}});
  cases[1].plan.crashes.push_back({1, 80 * kMilli, {100 * kMilli}});
  cases[1].expect_disturbed = true;

  // Both tiers at once: the brick dies while an MCD holding dirty replicas
  // dies, flushes in flight on both sides. Still >= 1 dirty replica at
  // every instant, so still zero loss.
  cases[2].name = "crash-mcd-and-brick-mid-flush";
  cases[2].plan.server_crashes.push_back({5 * kMilli, {30 * kMilli}});
  cases[2].plan.server_crashes.push_back({80 * kMilli, {105 * kMilli}});
  cases[2].plan.crashes.push_back({0, 4 * kMilli, {40 * kMilli}});
  cases[2].plan.crashes.push_back({2, 85 * kMilli, {110 * kMilli}});
  cases[2].expect_disturbed = true;
  cases[2].expect_server_crash = true;

  // Dirty-quorum loss: 2 daemons, K = 2, a coalescing window longer than
  // the run (only barriers drain), and the loss_trace() timeline above —
  // f0/f1/f2 dirty from t ~ 0 with no barrier, the clock carried forward
  // by cold reads. BOTH daemons crash at 50/51 ms: every dirty extent
  // loses all its replicas. The bytes are gone by design; the contract is
  // that the loss is COUNTED and the ledger names each path, and that
  // writes during the daemon outage degrade to write-through (accounted),
  // never silently vanish.
  cases[3].name = "dirty-quorum-loss";
  cases[3].n_mcds = 2;
  cases[3].flush_delay = 10000 * kMilli;
  cases[3].plan.crashes.push_back({0, 50 * kMilli, {120 * kMilli}});
  cases[3].plan.crashes.push_back({1, 51 * kMilli, {121 * kMilli}});
  cases[3].tolerate_loss = true;
  cases[3].expect_loss = true;
  cases[3].expect_disturbed = true;

  int failures = 0;
  unsigned long long total_overlay_reads = 0;
  for (auto& c : cases) {
    imca::harness::ReplayConfig cfg = base_config(seed);
    cfg.n_mcds = c.n_mcds;
    cfg.faults.spec = c.plan.spec;
    cfg.faults.crashes = c.plan.crashes;
    cfg.faults.server_spec = c.plan.server_spec;
    cfg.faults.server_crashes = c.plan.server_crashes;
    if (c.flush_delay > 0) cfg.imca.wb_flush_delay = c.flush_delay;
    if (c.tolerate_loss) {
      cfg.tolerate_wb_loss = true;
      cfg.verify_every_op = false;
      // loss_trace() paces itself with cold brick reads; SMCache would
      // pre-warm the bank on every flush and erase that clock.
      cfg.smcache = false;
    }

    const auto res = c.tolerate_loss
                         ? imca::harness::replay(loss_trace(seed), cfg)
                         : imca::harness::run_seeded(seed, kOps, cfg);
    total_overlay_reads += res.wb.overlay_reads;

    bool ok = res.ok;
    std::string why = res.detail;
    if (ok && res.server.duplicate_applies != 0) {
      ok = false;
      why = "duplicate_applies = " +
            std::to_string(res.server.duplicate_applies) +
            " (a flushed extent ran through the stack twice)";
    }
    if (ok && res.wb.absorbed == 0) {
      ok = false;
      why = "no write was ever absorbed (vacuous pass)";
    }
    if (ok && res.wb.flushed_extents == 0) {
      ok = false;
      why = "no dirty extent ever reached the brick (vacuous pass)";
    }
    if (ok && !c.expect_loss &&
        (res.wb.lost_extents != 0 || !res.wb_lost.empty())) {
      ok = false;
      why = "lost " + std::to_string(res.wb.lost_extents) +
            " extents with >= 1 dirty replica alive at every instant";
    }
    if (ok && c.expect_loss) {
      if (res.wb.lost_extents == 0 || res.wb.lost_bytes == 0) {
        ok = false;
        why = "quorum-loss plan lost nothing (vacuous pass)";
      } else if (res.wb_lost.empty()) {
        // (The ledger can hold FEWER entries than lost_extents: a rename
        // that replaces a lossy target prunes entries no reader can
        // observe any more. Empty with losses counted is the bug.)
        ok = false;
        why = "losses counted but the ledger names no path";
      } else if (res.wb.degraded_writes == 0) {
        ok = false;
        why = "no write degraded while the dirty quorum was down";
      }
    }
    if (ok && c.expect_disturbed &&
        res.wb.replica_drops + res.wb.degraded_writes + res.wb.rollbacks ==
            0) {
      ok = false;
      why = "crash plan never disturbed the write-back tier (vacuous pass)";
    }
    if (ok && c.expect_server_crash) {
      if (res.server.crashes == 0 || res.server.restarts == 0) {
        ok = false;
        why = "plan expected the brick to crash and restart";
      } else if (res.pc.retries == 0) {
        ok = false;
        why = "brick crashed but the client never retried (vacuous pass)";
      }
    }

    std::printf(
        "%-28s seed=%llu %s  absorbed=%llu flushed=%llu lost=%llu "
        "degraded=%llu drops=%llu rollbacks=%llu requeues=%llu retries=%llu "
        "overlay_reads=%llu tolerated=%llu dup_applies=%llu\n",
        c.name, static_cast<unsigned long long>(seed), ok ? "PASS" : "FAIL",
        static_cast<unsigned long long>(res.wb.absorbed),
        static_cast<unsigned long long>(res.wb.flushed_extents),
        static_cast<unsigned long long>(res.wb.lost_extents),
        static_cast<unsigned long long>(res.wb.degraded_writes),
        static_cast<unsigned long long>(res.wb.replica_drops),
        static_cast<unsigned long long>(res.wb.rollbacks),
        static_cast<unsigned long long>(res.wb.flush_requeues),
        static_cast<unsigned long long>(res.wb.flush_retries),
        static_cast<unsigned long long>(res.wb.overlay_reads),
        static_cast<unsigned long long>(res.wb_tolerated_divergences),
        static_cast<unsigned long long>(res.server.duplicate_applies));
    if (!ok) {
      std::fprintf(stderr, "  %s: %s\n", c.name, why.c_str());
      ++failures;
    }
  }

  if (failures == 0 && total_overlay_reads == 0) {
    std::fprintf(stderr,
                 "matrix-wide: no read ever crossed the dirty overlay — "
                 "read-your-writes never ran\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
