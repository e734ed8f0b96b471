#include "net/failover.h"

#include <memory>
#include <optional>
#include <utility>

#include "sim/sync.h"

namespace imca::net {

namespace {

struct Race {
  explicit Race(sim::EventLoop& l) : done(l) {}
  sim::Event done;
  std::optional<Expected<ByteBuf>> result;
};

sim::Task<void> race_call(RpcSystem& rpc, NodeId src, NodeId dst, Port port,
                          ByteBuf request, const TransportParams* transport,
                          std::shared_ptr<Race> race) {
  auto resp =
      co_await rpc.call(src, dst, port, std::move(request), transport);
  if (!race->done.is_set()) race->result.emplace(std::move(resp));
  race->done.set();
}

sim::Task<Expected<ByteBuf>> race_deadline(RpcSystem& rpc, NodeId src,
                                           NodeId dst, Port port,
                                           ByteBuf request,
                                           SimDuration deadline,
                                           const TransportParams* transport) {
  sim::EventLoop& loop = rpc.fabric().loop();
  auto race = std::make_shared<Race>(loop);
  // Spawn the call before arming the timer: the order fixes the event
  // sequence numbers, and with them every tie on the sim clock.
  loop.spawn(race_call(rpc, src, dst, port, std::move(request), transport,
                       race));
  sim::arm_timeout(loop, std::shared_ptr<sim::Event>(race, &race->done),
                   deadline);
  co_await race->done.wait();
  if (race->result) co_return std::move(*race->result);
  co_return Errc::kTimedOut;
}

}  // namespace

sim::Task<Expected<ByteBuf>> call_with_deadline(
    RpcSystem& rpc, NodeId src, NodeId dst, Port port, ByteBuf request,
    SimDuration deadline, const TransportParams* transport) {
  // No deadline: hand back the call's own task, so the common path costs
  // no extra coroutine frame.
  if (deadline == 0) {
    return rpc.call(src, dst, port, std::move(request), transport);
  }
  return race_deadline(rpc, src, dst, port, std::move(request), deadline,
                       transport);
}

bool PeerHealth::note_failure(SimTime now) noexcept {
  if (eject_after_ == 0 || ++streak_ < eject_after_) return false;
  eject(now);
  return true;
}

void PeerHealth::eject(SimTime now) noexcept {
  if (!down_) {
    down_ = true;
    down_since_ = now;
  }
  streak_ = 0;
  defer_probe(now);
}

bool PeerHealth::mark_alive() noexcept {
  streak_ = 0;
  if (!down_) return false;
  down_ = false;
  return true;
}

}  // namespace imca::net
