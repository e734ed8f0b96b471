// Server-fault-matrix driver: the invariant harness run against the five
// brick-failure plans the acceptance criteria name — no-fault,
// crash-during-write, crash-during-flush, slow-server and crash-both-tiers
// — for one seed (--seed=N).
//
// Exit 0 iff every plan replays with zero oracle mismatches AND:
//   * no mutation was ever applied twice (server duplicate_applies == 0 —
//     the exactly-once contract of the (client_id, op_seq) replay window);
//   * no op overran its deadline by more than one backoff step
//     (max_op_elapsed <= op_deadline + backoff_cap);
//   * the crash plans actually crashed and restarted the brick and forced
//     client retries (no vacuous passes);
//   * the slow plan forced attempt timeouts;
//   * across the whole matrix at least one replayed mutation was answered
//     from the replay window (the dedup machinery demonstrably ran).
//
// The crash-during-flush plan runs the brick with write-behind in
// flush_before_ack mode: every acked byte is on the child before the ack,
// so the harness oracle ("acked mutations survive any crash schedule") is
// provable. The unsafe mode's loss is measured by a unit test instead
// (server_fault_test.cc), where "acked" and "lost" can be told apart.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/units.h"
#include "harness/workload_harness.h"
#include "sim/event_loop.h"

namespace {

using imca::kMilli;

struct PlanCase {
  const char* name;
  imca::net::FaultPlan plan;
  bool server_write_behind = false;
  bool expect_crash = false;    // crashes>=1, restarts>=1, client retried
  bool expect_timeouts = false; // attempt timeouts observed
  imca::SimDuration op_deadline = 0;  // per-case override (0 = base config)
};

imca::harness::ReplayConfig base_config(std::uint64_t seed) {
  imca::harness::ReplayConfig cfg;
  cfg.n_mcds = 3;
  cfg.smcache = true;
  // MCD-tier failover, as in the MCD fault matrix.
  cfg.imca.mcd_op_timeout = 2 * kMilli;
  cfg.imca.mcd_retry_dead_interval = 10 * kMilli;
  // File-server-tier failover: deadline + retry + replay. A cold disk
  // access costs ~12 ms in this model, so the attempt timeout sits above
  // one access and the deadline above a worst-case burst of them.
  cfg.client.protocol.op_deadline = 400 * kMilli;
  cfg.client.protocol.attempt_timeout = 40 * kMilli;
  cfg.client.protocol.backoff_base = 1 * kMilli;
  cfg.client.protocol.backoff_cap = 8 * kMilli;
  cfg.client.protocol.eject_after = 3;
  cfg.client.protocol.probe_interval = 5 * kMilli;
  cfg.faults.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shake=", 8) == 0) {
      // Schedule-shake validator hook (DESIGN.md Â§5k): deterministically
      // permute equal-timestamp resume order for every EventLoop this
      // matrix builds. 0 is bit-for-bit the plain FIFO run (pinned by the
      // *_shake_zero_diff ctests); non-zero seeds are the interleaving
      // search the imca_shake_matrix suite sweeps.
      imca::sim::set_default_tie_shake(
          std::strtoull(argv[i] + 8, nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--seed=N] [--shake=N]\n", argv[0]);
      return 2;
    }
  }

  constexpr std::size_t kOps = 120;

  PlanCase cases[5];
  cases[0].name = "no-fault";

  // The brick dies mid-workload and comes back 25 ms later; clients must
  // ride it out on retries + the replay window.
  cases[1].name = "crash-during-write";
  cases[1].plan.server_crashes.push_back({5 * kMilli, {30 * kMilli}});
  cases[1].plan.server_crashes.push_back({80 * kMilli, {105 * kMilli}});
  cases[1].expect_crash = true;

  // Same crash schedule, but the brick buffers writes in write-behind
  // (flush_before_ack mode): the crash lands on the flush machinery too.
  cases[2].name = "crash-during-flush";
  cases[2].plan.server_crashes.push_back({5 * kMilli, {30 * kMilli}});
  cases[2].plan.server_crashes.push_back({80 * kMilli, {105 * kMilli}});
  cases[2].server_write_behind = true;
  cases[2].expect_crash = true;

  // A third of the brick's replies crawl in after the attempt timeout:
  // every such fop was APPLIED but looks failed — the replay window's home
  // turf. The deadline is widened so an unlucky all-slow streak (p^k per
  // op) cannot exhaust it on any fixed seed.
  cases[3].name = "slow-server";
  cases[3].plan.server_spec.slow_reply = 0.35;
  cases[3].plan.server_spec.slow_delay = 60 * kMilli;
  cases[3].expect_timeouts = true;
  cases[3].op_deadline = 800 * kMilli;

  // Both tiers fail at once: MCDs crash while the brick crashes.
  cases[4].name = "crash-both-tiers";
  cases[4].plan.server_crashes.push_back({5 * kMilli, {30 * kMilli}});
  cases[4].plan.crashes.push_back({0, 4 * kMilli, {40 * kMilli}});
  cases[4].plan.crashes.push_back({2, 6 * kMilli, std::nullopt});
  cases[4].expect_crash = true;

  int failures = 0;
  unsigned long long total_deduped = 0;
  for (auto& c : cases) {
    imca::harness::ReplayConfig cfg = base_config(seed);
    cfg.faults.spec = c.plan.spec;
    cfg.faults.crashes = c.plan.crashes;
    cfg.faults.server_spec = c.plan.server_spec;
    cfg.faults.server_crashes = c.plan.server_crashes;
    if (c.server_write_behind) {
      cfg.server.write_behind = true;
      cfg.server.wb.flush_before_ack = true;
      cfg.server.wb.flush_deadline = 1 * kMilli;
    }
    if (c.op_deadline > 0) cfg.client.protocol.op_deadline = c.op_deadline;

    const auto res = imca::harness::run_seeded(seed, kOps, cfg);
    total_deduped += res.server.replays_deduped;

    bool ok = res.ok;
    std::string why = res.detail;
    if (ok && res.server.duplicate_applies != 0) {
      ok = false;
      why = "duplicate_applies = " +
            std::to_string(res.server.duplicate_applies) +
            " (a replayed mutation ran through the stack twice)";
    }
    const imca::SimDuration bound =
        cfg.client.protocol.op_deadline + cfg.client.protocol.backoff_cap;
    if (ok && res.pc.max_op_elapsed > bound) {
      ok = false;
      why = "max_op_elapsed " + std::to_string(res.pc.max_op_elapsed) +
            " ns exceeds op_deadline + one backoff step (" +
            std::to_string(bound) + " ns)";
    }
    if (ok && c.expect_crash) {
      if (res.server.crashes == 0 || res.server.restarts == 0) {
        ok = false;
        why = "plan expected the brick to crash and restart";
      } else if (res.pc.retries == 0) {
        ok = false;
        why = "brick crashed but the client never retried (vacuous pass)";
      }
    }
    if (ok && c.expect_timeouts && res.pc.timeouts == 0) {
      ok = false;
      why = "slow plan produced no attempt timeouts (vacuous pass)";
    }

    std::printf(
        "%-20s seed=%llu %s  reads_checked=%llu bytes=%llu crashes=%llu "
        "restarts=%llu retries=%llu replays=%llu deduped=%llu dup_applies=%llu "
        "timeouts=%llu sheds=%llu brownout=%llu max_op_ms=%.2f\n",
        c.name, static_cast<unsigned long long>(seed), ok ? "PASS" : "FAIL",
        static_cast<unsigned long long>(res.reads_checked),
        static_cast<unsigned long long>(res.bytes_checked),
        static_cast<unsigned long long>(res.server.crashes),
        static_cast<unsigned long long>(res.server.restarts),
        static_cast<unsigned long long>(res.pc.retries),
        static_cast<unsigned long long>(res.pc.replays),
        static_cast<unsigned long long>(res.server.replays_deduped),
        static_cast<unsigned long long>(res.server.duplicate_applies),
        static_cast<unsigned long long>(res.pc.timeouts),
        static_cast<unsigned long long>(res.server.sheds_admission +
                                        res.server.sheds_expired +
                                        res.server.sheds_io),
        static_cast<unsigned long long>(res.cm_faults.brownout_serves),
        static_cast<double>(res.pc.max_op_elapsed) / kMilli);
    if (!ok) {
      std::fprintf(stderr, "  %s: %s\n", c.name, why.c_str());
      ++failures;
    }
  }

  if (failures == 0 && total_deduped == 0) {
    std::fprintf(stderr,
                 "matrix-wide: no replayed mutation was ever answered from "
                 "the replay window — the dedup machinery never ran\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
