// Failover building blocks shared by every client that retries over the
// simulated fabric: the MCD client (DESIGN.md §5d), the brick's protocol
// client (§5f) and the write-back flusher (§5j).
//
// Three mechanisms are common to them, and only these live here:
//
//   * call_with_deadline — one RPC raced against the sim clock;
//   * Backoff            — the capped doubling retry schedule;
//   * PeerHealth         — the eject-after-N / timed-probe state of one peer.
//
// Each caller keeps its own retry loop and its own outcome classification
// (what counts as clean, what ejects, what is retried), because those differ
// per caller by design.
#pragma once

#include <cstddef>

#include "common/bytebuf.h"
#include "common/expected.h"
#include "common/units.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace imca::net {

// rpc.call(src, dst, port, request, transport), raced against `deadline`
// (0 = no deadline: rpc.call's own task, with no frame around it). If the
// deadline wins the caller gets kTimedOut at once; the call itself runs on
// detached in the background (every fault resolves in bounded sim time, so
// its frame always completes before the loop drains) and its late result
// is discarded. `rpc` and `*transport` must outlive that detached call.
sim::Task<Expected<ByteBuf>> call_with_deadline(
    RpcSystem& rpc, NodeId src, NodeId dst, Port port, ByteBuf request,
    SimDuration deadline, const TransportParams* transport = nullptr);

// Capped exponential backoff: the delay before retry k (0-based) is
// min(base * 2^k, cap), exactly and without overflow, for every k.
struct Backoff {
  SimDuration base = 0;
  SimDuration cap = 0;

  constexpr SimDuration delay(std::size_t k) const noexcept {
    if (base == 0) return 0;
    return k < 64 && base <= (cap >> k) ? base << k : cap;
  }
};

// Health of one peer as a client sees it: whether it is down, and the
// streak of consecutive failures. Every `eject_after`-th failure in a row
// ejects the peer (0 = never eject): the first takes it down, and a later
// one while it is still down — ops in flight across the ejection failing
// too — re-arms its probe timer. While the peer is down a probe is due every
// `probe_interval` (0 = never probe: down stays down). The state machine
// only records; the caller decides which outcomes count as failures, what
// a probe is, and whether a failed probe defers the next one.
class PeerHealth {
 public:
  PeerHealth(std::size_t eject_after, SimDuration probe_interval) noexcept
      : eject_after_(eject_after), probe_interval_(probe_interval) {}

  bool down() const noexcept { return down_; }
  // When the current (or last) down period began.
  SimTime down_since() const noexcept { return down_since_; }
  SimTime next_probe() const noexcept { return next_probe_; }

  bool probe_due(SimTime now) const noexcept {
    return probe_interval_ > 0 && now >= next_probe_;
  }
  // Push the next probe one interval past `now`.
  void defer_probe(SimTime now) noexcept {
    if (probe_interval_ > 0) next_probe_ = now + probe_interval_;
  }
  // One more failure in a row. True when it ejects the peer (again).
  bool note_failure(SimTime now) noexcept;
  // A success ends the streak; a down peer stays down until mark_alive().
  void note_success() noexcept { streak_ = 0; }
  // Take the peer down now, whatever the streak (a clean refusal).
  void eject(SimTime now) noexcept;
  // The peer answered: end the streak. True on the down -> up transition.
  bool mark_alive() noexcept;

 private:
  std::size_t eject_after_;
  SimDuration probe_interval_;
  std::size_t streak_ = 0;
  bool down_ = false;
  SimTime down_since_ = 0;
  SimTime next_probe_ = 0;
};

}  // namespace imca::net
