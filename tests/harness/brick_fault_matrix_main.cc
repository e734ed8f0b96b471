// Brick-fault-matrix driver: the invariant harness run against a 2x3 brick
// grid (two distribute groups of three AFR replicas) under the five
// kill-any-brick plans the acceptance criteria name — no-fault,
// crash-one-replica, crash-quorum-minority, crash-during-heal and
// rolling-restart — for one seed (--seed=N).
//
// Exit 0 iff every plan replays with zero oracle mismatches AND:
//   * no mutation was ever applied twice on any brick (grid-wide
//     duplicate_applies == 0 — the exactly-once replay window holds per
//     brick);
//   * no mutation ever failed quorum (quorum_short_writes == 0): every
//     crash plan keeps a majority of each replica group alive, so a write
//     that fails quorum would mean the client gave up on a reachable
//     majority;
//   * after the final heal sweep every replica of every live file is
//     byte-identical to the oracle and deleted files are gone from every
//     replica (the harness's grid-mode epilogue, run inside replay());
//   * the crash plans actually crashed and restarted bricks and forced
//     client retries, and the heal plans actually healed something (no
//     vacuous passes);
//   * across the whole matrix self-heal demonstrably ran
//     (heals_completed > 0) and read-child failover demonstrably ran
//     (read_child_switches >= 1).
//
// Bricks run with write-behind off (the seed default): an acked byte is on
// the brick's ObjectStore before the ack, so "quorum-acked mutations survive
// any minority crash schedule" is provable byte-for-byte.

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
  bool expect_crash = false;  // crashes>=1, restarts>=1, client retried
  bool expect_heals = false;  // heals_completed >= 1 after the run
};

imca::harness::ReplayConfig base_config(std::uint64_t seed) {
  imca::harness::ReplayConfig cfg;
  cfg.n_mcds = 3;
  cfg.smcache = true;
  cfg.n_bricks = 2;    // distribute groups
  cfg.n_replicas = 3;  // AFR replicas per group: quorum = 2
  cfg.imca.mcd_op_timeout = 2 * kMilli;
  cfg.imca.mcd_retry_dead_interval = 10 * kMilli;
  // Unlike the single-brick server matrix (which must ride out every crash
  // window on retries alone, so it runs a 400 ms deadline), a replicated
  // mount is SUPPOSED to give up on a dead minority quickly and commit on
  // the survivors. The deadline is deliberately shorter than every crash
  // window below: the leg to the dead brick fails, the write commits 2/3,
  // the dirty copy is what self-heal exists for. A cold disk access costs
  // ~12 ms, so the attempt timeout stays above one access.
  cfg.client.protocol.op_deadline = 60 * kMilli;
  cfg.client.protocol.attempt_timeout = 20 * kMilli;
  cfg.client.protocol.backoff_base = 1 * kMilli;
  cfg.client.protocol.backoff_cap = 4 * kMilli;
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
  // Grid layout is row-major: group g, replica r is brick g*3 + r.

  PlanCase cases[5];
  cases[0].name = "no-fault";

  // One replica of group 0 dies twice mid-workload; its two siblings keep
  // quorum, and each window (longer than op_deadline) leaves dirt for
  // self-heal to copy back.
  cases[1].name = "crash-one-replica";
  cases[1].plan.server_crashes.push_back({5 * kMilli, {75 * kMilli}, 1});
  cases[1].plan.server_crashes.push_back({120 * kMilli, {190 * kMilli}, 1});
  cases[1].expect_crash = true;
  cases[1].expect_heals = true;

  // A quorum minority dies in EVERY group at once (one of three replicas
  // each). Both groups stay writable throughout.
  cases[2].name = "crash-quorum-minority";
  cases[2].plan.server_crashes.push_back({5 * kMilli, {75 * kMilli}, 1});
  cases[2].plan.server_crashes.push_back({5 * kMilli, {75 * kMilli}, 4});
  cases[2].expect_crash = true;
  cases[2].expect_heals = true;

  // Brick 0 dies and rejoins; while its heal is (potentially) in flight,
  // brick 1 of the same group dies too. Heal sources must fail over and the
  // epoch check must discard copies that a concurrent write raced past.
  cases[3].name = "crash-during-heal";
  cases[3].plan.server_crashes.push_back({5 * kMilli, {75 * kMilli}, 0});
  cases[3].plan.server_crashes.push_back({90 * kMilli, {160 * kMilli}, 1});
  cases[3].expect_crash = true;
  cases[3].expect_heals = true;

  // Every brick in the grid restarts once, staggered so no two windows
  // overlap: at every instant each group has at most one replica down.
  cases[4].name = "rolling-restart";
  for (std::size_t b = 0; b < 6; ++b) {
    const imca::SimTime at = (5 + 75 * b) * kMilli;
    cases[4].plan.server_crashes.push_back({at, {at + 70 * kMilli}, b});
  }
  cases[4].expect_crash = true;
  cases[4].expect_heals = true;

  int failures = 0;
  unsigned long long total_heals = 0;
  unsigned long long total_switches = 0;
  for (auto& c : cases) {
    imca::harness::ReplayConfig cfg = base_config(seed);
    cfg.faults.server_crashes = c.plan.server_crashes;

    const auto res = imca::harness::run_seeded(seed, kOps, cfg);
    total_heals += res.replicate.heals_completed;
    total_switches += res.replicate.read_child_switches;

    bool ok = res.ok;
    std::string why = res.detail;
    if (ok && res.server.duplicate_applies != 0) {
      ok = false;
      why = "duplicate_applies = " +
            std::to_string(res.server.duplicate_applies) +
            " (a replayed mutation ran through some brick's stack twice)";
    }
    if (ok && res.replicate.quorum_short_writes != 0) {
      ok = false;
      why = "quorum_short_writes = " +
            std::to_string(res.replicate.quorum_short_writes) +
            " (a mutation failed quorum although a majority stayed up)";
    }
    if (ok && c.expect_crash) {
      if (res.server.crashes == 0 || res.server.restarts == 0) {
        ok = false;
        why = "plan expected bricks to crash and restart";
      } else if (res.pc.retries == 0 && res.pc.fast_fails == 0) {
        ok = false;
        why = "bricks crashed but no client connection ever noticed "
              "(vacuous pass)";
      }
    }
    if (ok && c.expect_heals && res.replicate.heals_completed == 0) {
      ok = false;
      why = "crash plan left nothing for self-heal (vacuous pass)";
    }

    std::printf(
        "%-22s seed=%llu %s  reads_checked=%llu replica_reads=%llu "
        "bytes=%llu crashes=%llu restarts=%llu retries=%llu "
        "short_writes=%llu partial_acks=%llu heals=%llu heal_bytes=%llu "
        "switches=%llu degraded=%llu deduped=%llu dup_applies=%llu\n",
        c.name, static_cast<unsigned long long>(seed), ok ? "PASS" : "FAIL",
        static_cast<unsigned long long>(res.reads_checked),
        static_cast<unsigned long long>(res.replica_reads_checked),
        static_cast<unsigned long long>(res.bytes_checked),
        static_cast<unsigned long long>(res.server.crashes),
        static_cast<unsigned long long>(res.server.restarts),
        static_cast<unsigned long long>(res.pc.retries),
        static_cast<unsigned long long>(res.replicate.quorum_short_writes),
        static_cast<unsigned long long>(res.replicate.partial_acks),
        static_cast<unsigned long long>(res.replicate.heals_completed),
        static_cast<unsigned long long>(res.replicate.heal_bytes_copied),
        static_cast<unsigned long long>(res.replicate.read_child_switches),
        static_cast<unsigned long long>(res.replicate.reads_degraded),
        static_cast<unsigned long long>(res.server.replays_deduped),
        static_cast<unsigned long long>(res.server.duplicate_applies));
    if (!ok) {
      std::fprintf(stderr, "  %s: %s\n", c.name, why.c_str());
      ++failures;
    }
  }

  if (failures == 0 && total_heals == 0) {
    std::fprintf(stderr,
                 "matrix-wide: self-heal never completed a single "
                 "(child, path) pair — the heal machinery never ran\n");
    ++failures;
  }
  if (failures == 0 && total_switches == 0) {
    std::fprintf(stderr,
                 "matrix-wide: the read child never switched — read "
                 "failover never ran\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
