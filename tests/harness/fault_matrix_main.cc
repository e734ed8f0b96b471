// Fault-matrix driver: the invariant harness run against the four fault
// plans the acceptance criteria name — no-fault, crash-one-MCD,
// crash-all-MCDs and flaky-50%-timeouts — for one seed (--seed=N).
//
// Exit 0 iff every plan replays with zero oracle mismatches AND the
// crash-all plan demonstrably degraded reads to the server path (proving
// the workload actually exercised the failure machinery rather than
// passing vacuously). Built both plain and under -DIMCA_SANITIZE to make
// the coroutine-heavy failover paths ASan/UBSan-clean.

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
  bool expect_degraded = false;
};

imca::harness::ReplayConfig base_config(std::uint64_t seed) {
  imca::harness::ReplayConfig cfg;
  cfg.n_mcds = 3;
  cfg.smcache = true;
  // Arm the failover machinery: per-op deadlines, retries, ejection and
  // periodic probe/rejoin. Without these the client would ride out every
  // black-holed call on the transport's 200 ms give-up.
  cfg.imca.mcd_op_timeout = 2 * kMilli;
  cfg.imca.mcd_retry_dead_interval = 10 * kMilli;
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

  constexpr std::size_t kOps = 160;

  PlanCase cases[4];
  cases[0].name = "no-fault";

  cases[1].name = "crash-one-mcd";
  cases[1].plan.crashes.push_back({0, 2 * kMilli, 20 * kMilli});

  cases[2].name = "crash-all-mcds";
  cases[2].plan.crashes.push_back({0, 2 * kMilli, std::nullopt});
  cases[2].plan.crashes.push_back({1, 2 * kMilli + kMilli / 2, std::nullopt});
  cases[2].plan.crashes.push_back({2, 3 * kMilli, std::nullopt});
  cases[2].expect_degraded = true;

  cases[3].name = "flaky-50pct-timeouts";
  cases[3].plan.spec.drop_reply = 0.5;

  int failures = 0;
  for (auto& c : cases) {
    imca::harness::ReplayConfig cfg = base_config(seed);
    cfg.faults.spec = c.plan.spec;
    cfg.faults.crashes = c.plan.crashes;

    const auto res = imca::harness::run_seeded(seed, kOps, cfg);
    bool ok = res.ok;
    std::string why = res.detail;
    if (ok && c.expect_degraded && res.cm_faults.degraded_reads == 0) {
      ok = false;
      why = "expected degraded_reads > 0 (plan should have forced the "
            "server path)";
    }
    std::printf(
        "%-22s seed=%llu %s  reads_checked=%llu bytes=%llu "
        "degraded_reads=%llu repairs_dropped=%llu timeouts=%llu "
        "ejections=%llu rejoins=%llu\n",
        c.name, static_cast<unsigned long long>(seed), ok ? "PASS" : "FAIL",
        static_cast<unsigned long long>(res.reads_checked),
        static_cast<unsigned long long>(res.bytes_checked),
        static_cast<unsigned long long>(res.cm_faults.degraded_reads),
        static_cast<unsigned long long>(res.cm_faults.repairs_dropped),
        static_cast<unsigned long long>(res.cm_client.timeouts +
                                        res.sm_client.timeouts),
        static_cast<unsigned long long>(res.cm_client.ejections +
                                        res.sm_client.ejections),
        static_cast<unsigned long long>(res.cm_client.rejoins +
                                        res.sm_client.rejoins));
    if (!ok) {
      std::fprintf(stderr, "  %s: %s\n", c.name, why.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
