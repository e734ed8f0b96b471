// Unit tests for the shared failover toolkit (net/failover.h): the capped
// backoff schedule against the formulas it replaced, the PeerHealth
// eject/probe state machine, and the deadline race on the sim clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "net/fabric.h"
#include "net/failover.h"
#include "net/fault.h"
#include "net/rpc.h"
#include "net/transport.h"

namespace imca::net {
namespace {

using sim::EventLoop;
using sim::Task;

// The schedules the toolkit replaced, verbatim up to naming. Each clamped
// its shift so the doubling could not overflow.
SimDuration mcclient_formula(SimDuration base, SimDuration cap, std::size_t k) {
  return std::min(base << std::min<std::size_t>(k, 16), cap);
}
SimDuration protocol_client_formula(SimDuration base, SimDuration cap,
                                    std::size_t k) {
  const std::uint32_t shift =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(k), 20);
  return std::min<SimDuration>(base << shift, cap);
}
SimDuration writeback_formula(SimDuration b, std::size_t k) {
  return std::min<SimDuration>(b << std::min<std::size_t>(k, 4), b * 16);
}

TEST(Backoff, MatchesTheReplacedFormulasForEveryInRepoPair) {
  struct Pair {
    SimDuration base;
    SimDuration cap;
  };
  const Pair pairs[] = {
      {200 * kMicro, 5 * kMilli},  // McClient default / kMcdBackoff
      {1 * kMilli, 5 * kMilli},    // McClient failover unit tests
      {1 * kMilli, 4 * kMilli},    // brick fault matrix, heal, brownout
      {1 * kMilli, 8 * kMilli},    // server / write-back matrices, imcasim
      {1 * kMilli, 16 * kMilli},   // ProtocolClient default, kWbFlushBackoff
  };
  for (const auto& p : pairs) {
    const Backoff b{p.base, p.cap};
    for (std::size_t k = 0; k <= 70; ++k) {
      EXPECT_EQ(b.delay(k), mcclient_formula(p.base, p.cap, k))
          << p.base << "/" << p.cap << " k=" << k;
      EXPECT_EQ(b.delay(k), protocol_client_formula(p.base, p.cap, k))
          << p.base << "/" << p.cap << " k=" << k;
    }
  }
}

TEST(Backoff, MatchesTheWritebackScheduleAndBarrierDoubling) {
  const SimDuration base = 1 * kMilli;
  const Backoff b{base, 16 * base};
  SimDuration barrier = base;  // the barrier loop's running doubling
  for (std::size_t k = 0; k <= 70; ++k) {
    EXPECT_EQ(b.delay(k), writeback_formula(base, k)) << "k=" << k;
    EXPECT_EQ(b.delay(k), barrier) << "k=" << k;
    barrier = std::min<SimDuration>(barrier * 2, 16 * base);
  }
}

TEST(Backoff, SaturatesWithoutOverflowAtAnyShift) {
  const Backoff huge{SimDuration{1} << 62, ~SimDuration{0}};
  EXPECT_EQ(huge.delay(0), SimDuration{1} << 62);
  EXPECT_EQ(huge.delay(1), SimDuration{1} << 63);
  EXPECT_EQ(huge.delay(2), ~SimDuration{0});
  EXPECT_EQ(huge.delay(1000), ~SimDuration{0});
  EXPECT_EQ((Backoff{0, 5 * kMilli}.delay(200)), 0u);
  EXPECT_EQ((Backoff{8 * kMilli, 5 * kMilli}.delay(0)), 5 * kMilli);
}

TEST(PeerHealth, EjectAfterZeroNeverEjects) {
  PeerHealth h(0, 10 * kMilli);
  for (SimTime t = 0; t < 1000; ++t) EXPECT_FALSE(h.note_failure(t));
  EXPECT_FALSE(h.down());
}

TEST(PeerHealth, ProbeIntervalZeroIsNeverDue) {
  PeerHealth h(1, 0);
  EXPECT_TRUE(h.note_failure(5 * kMilli));
  EXPECT_TRUE(h.down());
  h.defer_probe(6 * kMilli);
  EXPECT_FALSE(h.probe_due(0));
  EXPECT_FALSE(h.probe_due(~SimTime{0}));
}

TEST(PeerHealth, EjectsOnTheNthConsecutiveFailure) {
  PeerHealth h(3, 10 * kMilli);
  EXPECT_FALSE(h.note_failure(1 * kMilli));
  EXPECT_FALSE(h.note_failure(2 * kMilli));
  h.note_success();  // the streak restarts
  EXPECT_FALSE(h.note_failure(3 * kMilli));
  EXPECT_FALSE(h.note_failure(4 * kMilli));
  EXPECT_FALSE(h.down());
  EXPECT_TRUE(h.note_failure(5 * kMilli));
  EXPECT_TRUE(h.down());
  EXPECT_EQ(h.down_since(), 5 * kMilli);
  EXPECT_EQ(h.next_probe(), 15 * kMilli);
  EXPECT_FALSE(h.probe_due(15 * kMilli - 1));
  EXPECT_TRUE(h.probe_due(15 * kMilli));
}

TEST(PeerHealth, FailureWhileDownDefersTheProbe) {
  PeerHealth h(2, 10 * kMilli);
  h.eject(0);  // a clean refusal: down at once, whatever the streak
  EXPECT_TRUE(h.down());
  EXPECT_EQ(h.next_probe(), 10 * kMilli);
  // Ops in flight across the ejection keep failing: every eject_after-th
  // failure in a row re-arms the probe timer; the peer stays down since 0.
  EXPECT_FALSE(h.note_failure(4 * kMilli));
  EXPECT_EQ(h.next_probe(), 10 * kMilli);
  EXPECT_TRUE(h.note_failure(7 * kMilli));
  EXPECT_EQ(h.next_probe(), 17 * kMilli);
  EXPECT_EQ(h.down_since(), 0u);
  // A failed probe is deferred by its caller, and a repeated refusal too.
  h.defer_probe(17 * kMilli);
  EXPECT_EQ(h.next_probe(), 27 * kMilli);
  h.eject(30 * kMilli);
  EXPECT_EQ(h.next_probe(), 40 * kMilli);
  EXPECT_EQ(h.down_since(), 0u);
  // A success ends the streak but does not readmit the peer.
  h.note_success();
  EXPECT_TRUE(h.down());
}

TEST(PeerHealth, MarkAliveReportsTheRejoinExactlyOnce) {
  PeerHealth h(1, 10 * kMilli);
  EXPECT_FALSE(h.mark_alive());  // never down: no transition
  EXPECT_TRUE(h.note_failure(2 * kMilli));
  EXPECT_TRUE(h.mark_alive());
  EXPECT_FALSE(h.down());
  EXPECT_FALSE(h.mark_alive());
  // A new down period records its own start.
  EXPECT_TRUE(h.note_failure(9 * kMilli));
  EXPECT_EQ(h.down_since(), 9 * kMilli);
}

// The race on the sim clock: every reply from the service is delayed 5 ms.
class DeadlineRaceTest : public ::testing::Test {
 public:
  DeadlineRaceTest() : fabric_(loop_, ipoib_rc()), rpc_(fabric_) {
    fabric_.add_node("server");
    fabric_.add_node("client");
    rpc_.listen(0, kPortGluster, [](ByteBuf req, NodeId) -> Task<ByteBuf> {
      ByteBuf resp;
      resp.put_u32(req.get_u32().value() + 1);
      co_return resp;
    });
    FaultSpec slow;
    slow.slow_reply = 1.0;
    slow.slow_delay = 5 * kMilli;
    injector_.set_spec(0, kPortGluster, slow);
    rpc_.set_fault_injector(&injector_);
  }
  ~DeadlineRaceTest() override { rpc_.set_fault_injector(nullptr); }

  // Issue one call with `deadline`; returns its result and completion time.
  std::pair<Expected<std::uint32_t>, SimTime> call(SimDuration deadline) {
    std::optional<Expected<std::uint32_t>> got;
    SimTime at = 0;
    loop_.spawn([](DeadlineRaceTest& t, SimDuration d,
                   std::optional<Expected<std::uint32_t>>& out,
                   SimTime& when) -> Task<void> {
      ByteBuf req;
      req.put_u32(41);
      auto resp = co_await call_with_deadline(t.rpc_, 1, 0, kPortGluster,
                                              std::move(req), d);
      when = t.loop_.now();
      if (resp) {
        out.emplace(resp->get_u32().value());
      } else {
        out.emplace(resp.error());
      }
    }(*this, deadline, got, at));
    loop_.run();
    return {*got, at};
  }

  EventLoop loop_;
  Fabric fabric_;
  RpcSystem rpc_;
  FaultInjector injector_{1};
};

TEST_F(DeadlineRaceTest, ZeroDeadlineIsAPlainCall) {
  const auto [r, at] = call(0);
  EXPECT_TRUE(r.has_value());
  if (r) { EXPECT_EQ(*r, 42u); }
  EXPECT_GT(at, 5 * kMilli);
}

TEST_F(DeadlineRaceTest, DeadlineWinsAtExactlyTheDeadline) {
  const auto [r, at] = call(2 * kMilli);
  EXPECT_EQ(r.error(), Errc::kTimedOut);
  EXPECT_EQ(at, 2 * kMilli);
  // The detached call still ran to completion before the loop drained.
  EXPECT_GT(loop_.now(), 5 * kMilli);
}

TEST_F(DeadlineRaceTest, ReplyWinsWhenItBeatsTheDeadline) {
  const auto [plain, plain_at] = call(0);
  const SimTime start = loop_.now();
  const auto [r, at] = call(50 * kMilli);
  EXPECT_TRUE(r.has_value());
  if (r) { EXPECT_EQ(*r, 42u); }
  EXPECT_EQ(at - start, plain_at);
  EXPECT_TRUE(plain.has_value());
}

}  // namespace
}  // namespace imca::net
