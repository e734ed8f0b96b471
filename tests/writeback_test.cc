// Durable write-back unit suite (DESIGN.md §5j) — the contract points the
// crash matrix cannot isolate: read-your-writes ACROSS clients through the
// shared dirty index, degradation to write-through when the dirty quorum is
// unavailable (accounted, never silent), backpressure at the dirty-memory
// bound, the fsync barrier making acked bytes brick-durable before quorum
// death, total-loss accounting with the ledger following a rename, and the
// flusher's bounded retry/backoff riding out a brick outage.
//
// Note: gtest ASSERT_* macros use `return` and cannot appear inside a
// coroutine body, so the tests guard with EXPECT_* + early co_return.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/testbed.h"
#include "common/units.h"
#include "imca/writeback.h"

namespace imca {
namespace {

using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;
using sim::Task;

constexpr SimDuration kNeverFlush = 10'000 * kMilli;  // > any test's runtime

GlusterTestbedConfig wb_config(std::size_t n_mcds, std::size_t n_clients) {
  GlusterTestbedConfig cfg;
  cfg.n_mcds = n_mcds;
  cfg.n_clients = n_clients;
  cfg.imca.writeback = true;
  cfg.imca.wb_replicas = 2;
  cfg.imca.wb_quorum = 2;
  // Failover-era client params (op_timeout = 0 means seed behaviour: a dead
  // daemon stays dead forever, so crashed-then-restarted MCDs never rejoin).
  cfg.imca.mcd_op_timeout = 2 * kMilli;
  return cfg;
}

const core::WritebackStats& wb_stats(GlusterTestbed& bed, std::size_t i) {
  return bed.cmcache(i).writeback()->stats();
}

TEST(WritebackTest, ReadYourWritesAcrossClients) {
  auto cfg = wb_config(3, 2);
  cfg.imca.wb_flush_delay = kNeverFlush;  // extents stay dirty throughout
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& bed) -> Task<void> {
    const std::string payload(8192, 'w');
    auto f = co_await bed.client(0).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    auto wrote = co_await bed.client(0).write(*f, 0, to_buffer(payload));
    EXPECT_TRUE(wrote.has_value());
    EXPECT_EQ(wb_stats(bed, 0).absorbed, 1u);  // acked from the MCD tier

    // A DIFFERENT mount reads before any flush: the merged dirty index is
    // shared state, so the bytes must be visible even though the brick file
    // is still empty.
    auto g = co_await bed.client(1).open("/f");
    EXPECT_TRUE(g.has_value());
    if (!g) co_return;
    auto got = co_await bed.client(1).read(*g, 0, 8192);
    EXPECT_TRUE(got.has_value());
    if (got) { EXPECT_EQ(to_string(*got), payload); }
    EXPECT_GE(wb_stats(bed, 1).overlay_reads, 1u);
    // stat takes the dirty size floor, not the brick's zero.
    auto st = co_await bed.client(1).stat("/f");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 8192u); }

    // After the drain the brick owns the bytes and the view is unchanged.
    co_await bed.sync_writebacks();
    EXPECT_EQ(wb_stats(bed, 0).flushed_extents, 1u);
    EXPECT_EQ(wb_stats(bed, 0).lost_extents, 0u);
    got = co_await bed.client(1).read(*g, 0, 8192);
    EXPECT_TRUE(got.has_value());
    if (got) { EXPECT_EQ(to_string(*got), payload); }
  }(tb));
}

TEST(WritebackTest, QuorumUnavailableDegradesToWriteThrough) {
  // One daemon < wb_quorum = 2: the write can never reach a dirty quorum,
  // so it must land on the brick directly — counted, and byte-correct.
  auto cfg = wb_config(1, 1);
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& bed) -> Task<void> {
    auto f = co_await bed.client(0).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    auto wrote = co_await bed.client(0).write(*f, 0, to_buffer("degraded"));
    EXPECT_TRUE(wrote.has_value());
    EXPECT_EQ(wb_stats(bed, 0).absorbed, 0u);
    EXPECT_EQ(wb_stats(bed, 0).degraded_writes, 1u);
    auto got = co_await bed.client(0).read(*f, 0, 8);
    EXPECT_TRUE(got.has_value());
    if (got) { EXPECT_EQ(to_string(*got), "degraded"); }
  }(tb));
}

TEST(WritebackTest, DirtyBoundShedsWithBackpressure) {
  auto cfg = wb_config(3, 1);
  cfg.imca.wb_flush_delay = kNeverFlush;
  cfg.imca.wb_dirty_limit = 4096;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& bed) -> Task<void> {
    auto f = co_await bed.client(0).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    // Exactly at the bound: absorbed.
    auto w1 = co_await bed.client(0).write(*f, 0, to_buffer(std::string(4096, 'a')));
    EXPECT_TRUE(w1.has_value());
    EXPECT_EQ(wb_stats(bed, 0).absorbed, 1u);
    // One byte over: shed to write-through — and the shed drains the path
    // first, so this write cannot be clobbered by the older dirty epoch.
    auto w2 = co_await bed.client(0).write(*f, 4096, to_buffer("b"));
    EXPECT_TRUE(w2.has_value());
    EXPECT_EQ(wb_stats(bed, 0).backpressure_sheds, 1u);
    auto got = co_await bed.client(0).read(*f, 4095, 2);
    EXPECT_TRUE(got.has_value());
    if (got) { EXPECT_EQ(to_string(*got), "ab"); }
  }(tb));
}

TEST(WritebackTest, FsyncBarrierMakesBytesSurviveQuorumDeath) {
  auto cfg = wb_config(2, 1);
  cfg.imca.wb_flush_delay = kNeverFlush;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& bed) -> Task<void> {
    const std::string payload(4096, 'd');
    auto f = co_await bed.client(0).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    EXPECT_TRUE((co_await bed.client(0).write(*f, 0, to_buffer(payload))).has_value());
    EXPECT_TRUE((co_await bed.client(0).fsync(*f)).has_value());
    EXPECT_EQ(wb_stats(bed, 0).flushed_extents, 1u);
    EXPECT_EQ(bed.cmcache(0).writeback()->dirty_bytes(), 0u);

    // Every dirty replica dies — but fsync already drained, so nothing is
    // dirty, nothing is lost, and the brick serves the bytes.
    bed.mcd(0).stop();
    bed.mcd(1).stop();
    auto got = co_await bed.client(0).read(*f, 0, 4096);
    EXPECT_TRUE(got.has_value());
    if (got) { EXPECT_EQ(to_string(*got), payload); }
    EXPECT_EQ(wb_stats(bed, 0).lost_extents, 0u);
  }(tb));
}

TEST(WritebackTest, DirtyQuorumDeathIsAccountedLoss) {
  auto cfg = wb_config(2, 1);
  cfg.imca.wb_flush_delay = kNeverFlush;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& bed) -> Task<void> {
    auto f = co_await bed.client(0).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    EXPECT_TRUE((co_await bed.client(0)
                     .write(*f, 0, to_buffer(std::string(4096, 'x'))))
                    .has_value());
    EXPECT_EQ(wb_stats(bed, 0).absorbed, 1u);

    // Both replicas die before any flush: the bytes are genuinely gone.
    bed.mcd(0).stop();
    bed.mcd(1).stop();
    co_await bed.sync_writebacks();
    EXPECT_EQ(wb_stats(bed, 0).lost_extents, 1u);
    EXPECT_EQ(wb_stats(bed, 0).lost_bytes, 4096u);
    const auto losses = bed.writeback_losses();
    EXPECT_EQ(losses.size(), 1u);
    if (!losses.empty()) { EXPECT_EQ(losses[0].path, "/f"); }
    // The divergence is visible — a too-short read, never wrong bytes.
    auto got = co_await bed.client(0).read(*f, 0, 4096);
    EXPECT_TRUE(got.has_value());
    if (got) { EXPECT_EQ(got->size(), 0u); }

    // Restarted (empty) daemons take absorbs again — once the probe window
    // (mcd_retry_dead_interval) elapsed AND an op actually touched them:
    // probes are lazy, and the absorb path degrades without issuing ops, so
    // the read below (its index scan queries every replica) does the rejoin.
    bed.mcd(0).start();
    bed.mcd(1).start();
    co_await bed.loop().sleep(100 * kMilli);
    (void)co_await bed.client(0).read(*f, 0, 1);
    EXPECT_TRUE((co_await bed.client(0).write(*f, 0, to_buffer("again"))).has_value());
    EXPECT_EQ(wb_stats(bed, 0).absorbed, 2u);
  }(tb));
}

TEST(WritebackTest, RenameCarriesLossLedgerToNewName) {
  auto cfg = wb_config(2, 1);
  cfg.imca.wb_flush_delay = kNeverFlush;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& bed) -> Task<void> {
    auto f = co_await bed.client(0).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    EXPECT_TRUE((co_await bed.client(0)
                     .write(*f, 0, to_buffer(std::string(1024, 'x'))))
                    .has_value());
    bed.mcd(0).stop();
    bed.mcd(1).stop();
    // The rename barrier drains /f (discovering the loss), then the move
    // carries the ledger entry: the divergence is observable at /g now.
    EXPECT_TRUE((co_await bed.client(0).rename("/f", "/g")).has_value());
    const auto losses = bed.writeback_losses();
    EXPECT_EQ(losses.size(), 1u);
    if (!losses.empty()) { EXPECT_EQ(losses[0].path, "/g"); }
  }(tb));
}

TEST(WritebackTest, FlushRetriesRideOutBrickOutage) {
  auto cfg = wb_config(3, 1);
  cfg.imca.wb_flush_delay = 1 * kMilli;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& bed) -> Task<void> {
    const std::string payload(2048, 'r');
    auto f = co_await bed.client(0).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    EXPECT_TRUE((co_await bed.client(0).write(*f, 0, to_buffer(payload))).has_value());
    EXPECT_EQ(wb_stats(bed, 0).absorbed, 1u);

    // The brick dies before the coalescing window elapses: the flusher's
    // first pass fails, retries with backoff, re-queues the path — and
    // drains cleanly once the brick returns. No loss, no duplicate.
    bed.server().crash();
    co_await bed.loop().sleep(40 * kMilli);
    EXPECT_GE(wb_stats(bed, 0).flush_retries, 1u);
    EXPECT_EQ(wb_stats(bed, 0).flushed_extents, 0u);
    bed.server().restart();
    co_await bed.loop().sleep(100 * kMilli);
    EXPECT_EQ(wb_stats(bed, 0).flushed_extents, 1u);
    EXPECT_EQ(wb_stats(bed, 0).lost_extents, 0u);
    auto got = co_await bed.client(0).read(*f, 0, 2048);
    EXPECT_TRUE(got.has_value());
    if (got) { EXPECT_EQ(to_string(*got), payload); }
  }(tb));
  EXPECT_EQ(tb.server().stats().duplicate_applies, 0u);
}

// First instant, to the microsecond, at which client `i` has flushed `n`
// extents (polled: the flusher exposes no completion event). 0 = never
// before `limit`.
Task<SimTime> flushed_at(GlusterTestbed& bed, std::size_t i, std::uint64_t n,
                         SimTime limit) {
  while (bed.loop().now() < limit) {
    if (wb_stats(bed, i).flushed_extents >= n) co_return bed.loop().now();
    co_await bed.loop().sleep(1 * kMicro);
  }
  co_return 0;
}

// Pins the flusher's schedule on the sim clock. The brick is down from the
// ack until 50 ms later, and every brick write is refused after one round
// trip. Each worker pass makes 6 attempts spaced by the capped doubling
// backoff 1, 2, 4, 8, 16 ms (5 retries); a failed pass requeues the path
// after 1 ms (then 2 ms), and each pass first waits the 1 ms coalescing
// window. So the first pass fails and the second pass's sixth attempt, 31
// ms after its first, is the one that lands after the restart; the drain
// instant adds the MCD index work of both passes and the brick's cold-disk
// write. Measured on the sim clock, independent of the host.
TEST(WritebackTest, FlushAndRequeueBackoffExact) {
  auto cfg = wb_config(3, 1);
  cfg.imca.wb_flush_delay = 1 * kMilli;
  GlusterTestbed tb(cfg);
  SimDuration drain = 0;
  tb.run([](GlusterTestbed& bed, SimDuration& drain_out) -> Task<void> {
    auto f = co_await bed.client(0).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    EXPECT_TRUE((co_await bed.client(0)
                     .write(*f, 0, to_buffer(std::string(2048, 'q'))))
                    .has_value());
    EXPECT_EQ(wb_stats(bed, 0).absorbed, 1u);
    const SimTime acked = bed.loop().now();
    bed.server().crash();
    bed.loop().spawn([](GlusterTestbed& b, SimTime at) -> Task<void> {
      co_await b.loop().sleep(at - b.loop().now());
      b.server().restart();
    }(bed, acked + 50 * kMilli));
    const SimTime done = co_await flushed_at(bed, 0, 1, acked + 500 * kMilli);
    EXPECT_GT(done, 0u);
    drain_out = done - acked;
  }(tb, drain));
  EXPECT_EQ(wb_stats(tb, 0).flush_retries, 10u);
  EXPECT_EQ(wb_stats(tb, 0).flush_requeues, 1u);
  EXPECT_EQ(wb_stats(tb, 0).lost_extents, 0u);
  EXPECT_EQ(drain, 78'375 * kMicro);
  EXPECT_EQ(tb.server().stats().duplicate_applies, 0u);
}

// Pins a barrier's poll spacing. Client 1 holds a dirty extent on /f that
// only it may flush; client 0's barrier on /f polls the merged index with
// gaps of 1, 2, 4, 8, 16, 16, ... ms (capped doubling) and returns at the
// first poll after client 1's own barrier drained the extent at +20 ms:
// the sixth, after 1 + 2 + 4 + 8 + 16 = 31 ms of sleeps plus the index
// reads and payload probes of the six polls.
TEST(WritebackTest, BarrierRoundSpacingExact) {
  auto cfg = wb_config(3, 2);
  cfg.imca.wb_flush_delay = kNeverFlush;
  GlusterTestbed tb(cfg);
  SimDuration waited = 0;
  tb.run([](GlusterTestbed& bed, SimDuration& waited_out) -> Task<void> {
    auto f = co_await bed.client(1).create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    EXPECT_TRUE((co_await bed.client(1)
                     .write(*f, 0, to_buffer(std::string(1024, 'b'))))
                    .has_value());
    EXPECT_EQ(wb_stats(bed, 1).absorbed, 1u);
    const SimTime start = bed.loop().now();
    bed.loop().spawn([](GlusterTestbed& b, SimTime at) -> Task<void> {
      co_await b.loop().sleep(at - b.loop().now());
      auto r = co_await b.cmcache(1).writeback()->sync_path("/f");
      EXPECT_TRUE(r.has_value());
    }(bed, start + 20 * kMilli));
    auto r = co_await bed.cmcache(0).writeback()->sync_path("/f");
    EXPECT_TRUE(r.has_value());
    waited_out = bed.loop().now() - start;
  }(tb, waited));
  EXPECT_EQ(wb_stats(tb, 1).flushed_extents, 1u);
  EXPECT_EQ(wb_stats(tb, 0).barrier_timeouts, 0u);
  EXPECT_EQ(waited, 31 * kMilli + 644'843);
}

}  // namespace
}  // namespace imca
