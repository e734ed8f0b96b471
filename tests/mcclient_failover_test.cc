// Failover unit tests for the libmemcache-style client: the per-op deadline
// and backoff schedule (exact under the sim clock), ejection (a dead daemon
// takes zero traffic), rejoin with mandatory purge, the delete bypass, and
// multi-get behaviour when a daemon dies mid-batch.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mcclient/client.h"
#include "mcclient/selector.h"
#include "memcache/server.h"
#include "net/fabric.h"
#include "net/fault.h"
#include "net/rpc.h"

namespace imca::mcclient {
namespace {

using memcache::McServer;

// Members are public: tests drive the fixture from captureless lambda
// coroutines (the coroutine frame must not refer into a dead closure).
class FailoverTest : public ::testing::Test {
 public:
  static constexpr std::size_t kServers = 3;

  FailoverTest() : fabric_(loop_, net::ipoib_rc()), rpc_(fabric_) {
    for (std::size_t i = 0; i < kServers; ++i) {
      fabric_.add_node("mcd" + std::to_string(i));
      servers_.push_back(std::make_unique<McServer>(
          rpc_, static_cast<net::NodeId>(i), 64 * kMiB));
      servers_.back()->start();
      server_ids_.push_back(static_cast<net::NodeId>(i));
    }
    client_node_ = fabric_.add_node("client").id();
    rpc_.set_fault_injector(&injector_);
  }

  // Black-hole every reply from `server` (requests still execute).
  void drop_replies_from(std::size_t server, double p = 1.0) {
    net::FaultSpec spec;
    spec.drop_reply = p;
    injector_.set_spec(server_ids_[server], net::kPortMemcached, spec);
  }

  // A key the crc32 selector routes to `server`.
  static std::string key_for(const McClient& c, std::size_t server) {
    for (int i = 0;; ++i) {
      std::string key = "probe" + std::to_string(i);
      if (c.selector().pick(key, std::nullopt, kServers) == server) return key;
    }
  }

  void run(sim::Task<void> t) {
    loop_.spawn(std::move(t));
    loop_.run();
  }

  sim::EventLoop loop_;
  net::Fabric fabric_;
  net::RpcSystem rpc_;
  net::FaultInjector injector_{1};
  std::vector<std::unique_ptr<McServer>> servers_;
  std::vector<net::NodeId> server_ids_;
  net::NodeId client_node_ = 0;
};

// With every reply dropped, one get must cost exactly the deadline/backoff
// schedule: 3 attempts x 2 ms deadline, plus backoffs of 1 ms (base << 0)
// and 2 ms (base << 1) between them = 9 ms, plus a few us of client CPU.
TEST_F(FailoverTest, TimeoutBackoffScheduleExact) {
  McClientParams p;
  p.op_timeout = 2 * kMilli;
  p.get_attempts = 3;
  p.backoff_base = 1 * kMilli;
  p.backoff_cap = 5 * kMilli;
  p.eject_after = 0;  // isolate the schedule from ejection
  McClient c(rpc_, client_node_, server_ids_,
             std::make_unique<Crc32Selector>(), p);
  for (std::size_t s = 0; s < kServers; ++s) drop_replies_from(s);

  SimDuration elapsed = 0;
  run([](FailoverTest& t, McClient& cl,
         SimDuration& out) -> sim::Task<void> {
    const SimTime t0 = t.loop_.now();
    auto v = co_await cl.get("k");
    out = t.loop_.now() - t0;
    EXPECT_EQ(v.error(), Errc::kNoEnt);  // degraded to a miss, not an error
  }(*this, c, elapsed));

  EXPECT_GE(elapsed, 9 * kMilli);
  EXPECT_LT(elapsed, 9 * kMilli + 50 * kMicro);  // only per-key CPU on top
  EXPECT_EQ(c.stats().timeouts, 3u);
  EXPECT_EQ(c.stats().retries, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_FALSE(c.server_dead(c.selector().pick("k", std::nullopt, kServers)));
}

// After `eject_after` consecutive unclean failures the daemon is ejected,
// and an ejected daemon takes ZERO wire traffic (with probing disabled).
TEST_F(FailoverTest, EjectedServerTakesZeroTraffic) {
  McClientParams p;
  p.op_timeout = 2 * kMilli;
  p.get_attempts = 1;
  p.eject_after = 2;
  p.retry_dead_interval = 0;  // never probe: dead stays dead
  McClient c(rpc_, client_node_, server_ids_,
             std::make_unique<Crc32Selector>(), p);
  drop_replies_from(1);

  run([](FailoverTest& t, McClient& cl) -> sim::Task<void> {
    const std::string key = key_for(cl, 1);
    EXPECT_EQ((co_await cl.get(key)).error(), Errc::kNoEnt);  // streak 1
    EXPECT_FALSE(cl.server_dead(1));
    EXPECT_EQ((co_await cl.get(key)).error(), Errc::kNoEnt);  // streak 2
    EXPECT_TRUE(cl.server_dead(1));

    const auto calls_frozen =
        t.rpc_.calls_to(t.server_ids_[1], net::kPortMemcached);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ((co_await cl.get(key)).error(), Errc::kNoEnt);
    }
    EXPECT_EQ(t.rpc_.calls_to(t.server_ids_[1], net::kPortMemcached),
              calls_frozen);
  }(*this, c));

  EXPECT_EQ(c.stats().ejections, 1u);
  EXPECT_EQ(c.stats().dead_server_ops, 10u);
}

// A daemon that comes back is only readmitted through a purge: the rejoin
// probe flushes it first, so an item that survived into the new incarnation
// can never be served.
TEST_F(FailoverTest, RejoinTriggersPurge) {
  McClientParams p;
  p.op_timeout = 2 * kMilli;
  p.get_attempts = 1;
  p.retry_dead_interval = 5 * kMilli;
  McClient c(rpc_, client_node_, server_ids_,
             std::make_unique<Crc32Selector>(), p);

  run([](FailoverTest& t, McClient& cl) -> sim::Task<void> {
    const std::string key = key_for(cl, 2);
    t.servers_[2]->stop();
    EXPECT_EQ((co_await cl.get(key)).error(), Errc::kNoEnt);  // refused
    EXPECT_TRUE(cl.server_dead(2));

    // Daemon restarts behind the client's back, holding a stale item.
    t.servers_[2]->start();
    EXPECT_TRUE(t.servers_[2]
                    ->cache()
                    .set(key, 0, 0, to_buffer("stale"), t.loop_.now())
                    .has_value());

    // Before the probe interval elapses the daemon stays ejected.
    EXPECT_EQ((co_await cl.get(key)).error(), Errc::kNoEnt);
    EXPECT_TRUE(cl.server_dead(2));

    co_await t.loop_.sleep(6 * kMilli);
    // The next op probes, flushes the daemon, readmits it — and therefore
    // misses instead of serving the stale item.
    EXPECT_EQ((co_await cl.get(key)).error(), Errc::kNoEnt);
    EXPECT_FALSE(cl.server_dead(2));
    EXPECT_EQ(t.servers_[2]->cache().item_count(), 0u);

    // Fully back in service.
    EXPECT_TRUE((co_await cl.set(key, to_buffer("fresh"))).has_value());
    auto v = co_await cl.get(key);
    EXPECT_TRUE(v.has_value());
    if (v) { EXPECT_EQ(to_string(v->data), "fresh"); }
  }(*this, c));

  EXPECT_EQ(c.stats().rejoins, 1u);
  EXPECT_EQ(c.stats().rejoin_purges, 1u);
}

// flush_all must not hang on (or wait out deadlines for) a daemon already
// marked dead, and must still flush the live ones.
TEST_F(FailoverTest, FlushAllToleratesDeadServer) {
  McClientParams p;
  p.op_timeout = 2 * kMilli;
  p.get_attempts = 1;
  McClient c(rpc_, client_node_, server_ids_,
             std::make_unique<Crc32Selector>(), p);

  SimDuration elapsed = 0;
  run([](FailoverTest& t, McClient& cl,
         SimDuration& out) -> sim::Task<void> {
    for (int i = 0; i < 30; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      (void)co_await cl.set(key, to_buffer("v"));
    }
    t.servers_[0]->stop();
    (void)co_await cl.get(key_for(cl, 0));  // refused: marks daemon 0 dead
    EXPECT_TRUE(cl.server_dead(0));

    const SimTime t0 = t.loop_.now();
    co_await cl.flush_all();
    out = t.loop_.now() - t0;
  }(*this, c, elapsed));

  EXPECT_LT(elapsed, 2 * kMilli);  // no deadline was even consumed
  EXPECT_EQ(servers_[1]->cache().item_count(), 0u);
  EXPECT_EQ(servers_[2]->cache().item_count(), 0u);
}

// A daemon dying mid-batch: every outstanding per-daemon get carries the
// per-op deadline, so a multi-get spanning a live and a black-holed daemon
// returns the live daemon's values after the deadline schedule — it does
// not ride the transport's 200 ms give-up.
TEST_F(FailoverTest, MultiGetMidBatchDeathIsBounded) {
  McClientParams p;
  p.op_timeout = 2 * kMilli;
  p.get_attempts = 2;
  p.backoff_base = 1 * kMilli;
  McClient c(rpc_, client_node_, {server_ids_[0], server_ids_[1]},
             std::make_unique<ModuloSelector>(), p);

  SimDuration elapsed = 0;
  run([](FailoverTest& t, McClient& cl,
         SimDuration& out) -> sim::Task<void> {
    (void)co_await cl.set("a", to_buffer("A"), 0);  // hint 0 -> daemon 0
    (void)co_await cl.set("b", to_buffer("B"), 1);  // hint 1 -> daemon 1
    t.drop_replies_from(1);

    const SimTime t0 = t.loop_.now();
    const std::vector<std::string> keys{"a", "b"};
    const std::vector<std::uint64_t> hints{0, 1};
    auto got = co_await cl.multi_get(keys, hints);
    out = t.loop_.now() - t0;

    EXPECT_TRUE(got.contains("a"));
    if (got.contains("a")) { EXPECT_EQ(to_string(got.at("a").data), "A"); }
    EXPECT_FALSE(got.contains("b"));
  }(*this, c, elapsed));

  // Two attempts x 2 ms + 1 ms backoff on the dead group; well under the
  // 200 ms transport give-up the old code would have waited.
  EXPECT_GE(elapsed, 5 * kMilli);
  EXPECT_LT(elapsed, 6 * kMilli);
  EXPECT_GE(c.stats().timeouts, 2u);
}

// A torn (short-read) reply is caught by the framing check, retried, and —
// when the fault persists — degraded to a miss instead of a protocol error.
TEST_F(FailoverTest, ShortReadDegradesToMiss) {
  McClientParams p;
  p.op_timeout = 2 * kMilli;
  p.get_attempts = 2;
  p.eject_after = 0;
  McClient c(rpc_, client_node_, server_ids_,
             std::make_unique<Crc32Selector>(), p);

  run([](FailoverTest& t, McClient& cl) -> sim::Task<void> {
    const std::string key = key_for(cl, 0);
    EXPECT_TRUE((co_await cl.set(key, to_buffer("v"))).has_value());

    net::FaultSpec spec;
    spec.short_read = 1.0;
    t.injector_.set_spec(t.server_ids_[0], net::kPortMemcached, spec);

    EXPECT_EQ((co_await cl.get(key)).error(), Errc::kNoEnt);
  }(*this, c));

  EXPECT_GE(c.stats().truncated_replies, 1u);
  EXPECT_EQ(c.stats().retries, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

// Writer mode: a mutation keeps retrying through dropped replies until it
// observes a clean outcome, and unclean streaks never eject the daemon.
// Deterministic setup: replies are dropped with probability 1 and the fault
// is lifted by a timer 5 ms in — the first clean attempt after that wins.
TEST_F(FailoverTest, ReliableMutationRetriesUntilClean) {
  McClientParams p;
  p.op_timeout = 2 * kMilli;
  p.mutation_attempts = 64;
  p.backoff_base = 200 * kMicro;
  p.eject_after = 2;  // would fire quickly if reliable mode didn't suppress it
  p.reliable_mutations = true;
  McClient c(rpc_, client_node_, server_ids_,
             std::make_unique<Crc32Selector>(), p);

  run([](FailoverTest& t, McClient& cl) -> sim::Task<void> {
    const std::string key = key_for(cl, 0);
    t.drop_replies_from(0);
    t.loop_.spawn([](FailoverTest* tt) -> sim::Task<void> {
      co_await tt->loop_.sleep(5 * kMilli);
      tt->injector_.clear_spec(tt->server_ids_[0], net::kPortMemcached);
    }(&t));

    EXPECT_TRUE((co_await cl.set(key, to_buffer("durable"))).has_value());
    auto v = co_await cl.get(key);
    EXPECT_TRUE(v.has_value());
    if (v) { EXPECT_EQ(to_string(v->data), "durable"); }
  }(*this, c));

  EXPECT_GE(c.stats().retries, 2u);
  EXPECT_GE(c.stats().timeouts, 2u);
  EXPECT_EQ(c.stats().ejections, 0u);
  EXPECT_FALSE(c.server_dead(0));
}

// Writer mode: deletes bypass the ejection list, so a daemon that restarted
// behind the writer's back can't keep a stale copy of an invalidated block —
// and a bypass delete that lands doubles as a rejoin (with purge).
TEST_F(FailoverTest, DeleteBypassesEjectionAndRejoins) {
  McClientParams p;
  p.op_timeout = 2 * kMilli;
  p.mutation_attempts = 8;
  p.reliable_mutations = true;
  p.delete_bypasses_ejection = true;
  p.retry_dead_interval = 0;  // isolate the bypass from timed probes
  McClient c(rpc_, client_node_, server_ids_,
             std::make_unique<Crc32Selector>(), p);

  run([](FailoverTest& t, McClient& cl) -> sim::Task<void> {
    const std::string key = key_for(cl, 1);
    t.servers_[1]->stop();
    (void)co_await cl.set(key, to_buffer("x"));  // refused: marks daemon dead
    EXPECT_TRUE(cl.server_dead(1));

    // Silent restart with a stale item the writer wants gone.
    t.servers_[1]->start();
    EXPECT_TRUE(t.servers_[1]
                    ->cache()
                    .set(key, 0, 0, to_buffer("stale"), t.loop_.now())
                    .has_value());

    EXPECT_TRUE((co_await cl.del(key)).has_value());
  }(*this, c));

  EXPECT_GE(c.stats().bypass_deletes, 1u);
  EXPECT_EQ(c.stats().rejoins, 1u);
  EXPECT_EQ(c.stats().rejoin_purges, 1u);
  EXPECT_FALSE(c.server_dead(1));
  EXPECT_EQ(servers_[1]->cache().item_count(), 0u);
}

}  // namespace
}  // namespace imca::mcclient
