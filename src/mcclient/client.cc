#include "mcclient/client.h"

#include <algorithm>
#include <cassert>
#include <string_view>

#include "sim/sync.h"

namespace imca::mcclient {

using memcache::GetResult;
using memcache::StoreReply;
using memcache::StoreVerb;
using memcache::Value;

namespace {

// A store or purge against a refusing daemon is moot: it is down and, by
// the crash semantics, empty — the value is merely uncached.
Errc refused_as_uncached(Errc e) {
  return e == Errc::kConnRefused || e == Errc::kConnReset ? Errc::kNoEnt : e;
}

}  // namespace

McClient::McClient(net::RpcSystem& rpc, net::NodeId self,
                   std::vector<net::NodeId> servers,
                   std::unique_ptr<ServerSelector> selector,
                   McClientParams params)
    : rpc_(rpc),
      self_(self),
      servers_(std::move(servers)),
      selector_(std::move(selector)),
      params_(params),
      health_(servers_.size(),
              net::PeerHealth(params.eject_after, params.retry_dead_interval)) {
  assert(!servers_.empty());
  assert(selector_ != nullptr);
}

bool McClient::reply_intact(const ByteBuf& resp, ReplyShape shape) {
  return resp.ends_with(shape == ReplyShape::kTerminated ? "END\r\n" : "\r\n");
}

sim::Task<bool> McClient::try_rejoin(std::size_t server) {
  // Mandatory purge-on-rejoin: flush the daemon *before* taking it back, so
  // a revived daemon can never serve an item from before its crash window or
  // a repair that raced the restart (DESIGN.md §5d). The flush is the clean
  // variant: write-back dirty items are the only copy of acked bytes, so a
  // probe may never wipe them from a daemon that stayed up while this client
  // merely thought it dead (a crashed daemon restarts empty either way).
  auto resp = co_await attempt(server, memcache::encode_flush_clean());
  if (resp && reply_intact(*resp, ReplyShape::kLine)) {
    // Every successful purge counts, even one that lost a race with a
    // concurrent op readmitting the same daemon.
    health_[server].mark_alive();
    ++stats_.rejoins;
    ++stats_.rejoin_purges;
    co_return true;
  }
  health_[server].defer_probe(loop().now());
  co_return false;
}

sim::Task<Expected<ByteBuf>> McClient::call(std::size_t server,
                                            ByteBuf request, OpKind op,
                                            ReplyShape shape) {
  net::PeerHealth& health = health_[server];
  if (health.down()) {
    if (params_.writer && op == OpKind::kDelete) {
      ++stats_.bypass_deletes;
    } else if (health.probe_due(loop().now())) {
      // Push the next probe out first so concurrent ops don't stampede the
      // daemon with flushes while this one is in flight.
      health.defer_probe(loop().now());
      if (!co_await try_rejoin(server)) {
        ++stats_.dead_server_ops;
        co_return Errc::kConnRefused;
      }
      // Revived: fall through and run the op against the (now empty) daemon.
    } else {
      ++stats_.dead_server_ops;
      co_return Errc::kConnRefused;
    }
  }

  const bool reliable =
      params_.writer && (op == OpKind::kMutation || op == OpKind::kDelete);
  const std::size_t attempts = std::max<std::size_t>(
      1, reliable ? params_.mutation_attempts : params_.get_attempts);

  Errc last = Errc::kTimedOut;
  for (std::size_t k = 0; k < attempts; ++k) {
    if (k > 0) {
      ++stats_.retries;
      co_await loop().sleep(params_.backoff.delay(k - 1));
    }
    ByteBuf wire = request;  // the RPC consumes its argument; retries re-copy
    // call() is awaited end-to-end by the front-end, which owns the
    // client — no destruction mid-suspension.
    // NOLINTNEXTLINE(imca-coro-this): frame awaited by the client's owner
    auto resp = co_await attempt(server, std::move(wire));

    if (resp && !reply_intact(*resp, shape)) {
      // Short read: the daemon processed the request but the reply is torn.
      // Same ambiguity as a lost reply, so classify it as unclean/retryable
      // rather than letting the protocol parser surface a hard kProto.
      ++stats_.truncated_replies;
      resp = Errc::kProto;
    }

    if (resp) {
      health.note_success();
      if (health.down()) {
        // A bypass delete reached a daemon that restarted behind our back.
        // Its cache may hold repairs from other clients made since; purge
        // and take it back (the delete itself already landed).
        co_await try_rejoin(server);
      }
      co_return resp;
    }

    last = resp.error();
    if (last == Errc::kConnRefused || last == Errc::kConnReset) {
      // Clean outcome: the daemon is down, and by the crash semantics its
      // contents died with it — skipping this op is safe, so never retry.
      health.eject(loop().now());
      ++stats_.dead_server_ops;
      co_return last;
    }

    // Unclean outcome (deadline fired or torn reply): the daemon may or may
    // not have applied the request and may still hold its items.
    if (last == Errc::kTimedOut) ++stats_.timeouts;
    if (!reliable && health.note_failure(loop().now())) {
      ++stats_.ejections;
      co_return last;
    }
  }
  co_return last;
}

sim::Task<Expected<Value>> McClient::get(std::string key,
                                         std::optional<std::uint64_t> hint) {
  const std::size_t server = route(key, hint);
  return fetch_at(server, std::move(key), false, OnFailure::kMiss);
}

McClient::KeyGroups McClient::group_by_server(
    std::vector<std::string> keys,
    std::span<const std::uint64_t> hints) const {
  const std::size_t n = keys.size();
  KeyGroups g;
  g.server_of.resize(n);
  g.pos_of.resize(n);
  // Route everything first so each group can reserve its exact size; then
  // move (never copy) each key into its group, preserving input order within
  // the group.
  std::map<std::size_t, std::size_t> group_size;
  for (std::size_t i = 0; i < n; ++i) {
    const auto hint = hints.empty()
                          ? std::optional<std::uint64_t>{}
                          : std::optional<std::uint64_t>{hints[i]};
    g.server_of[i] = route(keys[i], hint);
    ++group_size[g.server_of[i]];
  }
  for (const auto& [server, count] : group_size) {
    g.by_server[server].reserve(count);
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& group = g.by_server[g.server_of[i]];
    g.pos_of[i] = group.size();
    group.push_back(std::move(keys[i]));
  }
  return g;
}

sim::Task<GetResult> McClient::multi_get(std::vector<std::string> keys,
                                         std::span<const std::uint64_t> hints) {
  assert(hints.empty() || hints.size() == keys.size());
  const std::size_t n = keys.size();
  auto groups = group_by_server(std::move(keys), hints);
  stats_.gets += n;
  co_await rpc_.fabric().node(self_).cpu().use(n * params_.per_key_cpu);

  // One batched get per daemon, issued concurrently (libmemcache writes all
  // requests before draining any response). Each batch runs through the full
  // failover path, so a daemon dying mid-batch costs at most the per-op
  // deadline schedule instead of stalling the whole read.
  GetResult merged;
  std::vector<sim::Task<void>> calls;
  calls.reserve(groups.by_server.size());
  for (const auto& [server, group] : groups.by_server) {
    calls.push_back([](McClient& c, std::size_t srv, ByteBuf request,
                       GetResult& out) -> sim::Task<void> {
      auto resp = co_await c.call(srv, std::move(request), OpKind::kGet,
                                  ReplyShape::kTerminated);
      if (!resp) co_return;  // whole group misses
      auto parsed = memcache::parse_get_response(*resp);
      if (!parsed) co_return;
      out.merge(*parsed);
    }(*this, server, memcache::encode_get(group), merged));
  }
  co_await sim::when_all(rpc_.fabric().loop(), std::move(calls));
  stats_.hits += merged.size();
  stats_.misses += n - merged.size();
  co_return merged;
}

sim::Task<std::vector<std::optional<Value>>> McClient::multi_get_ordered(
    std::vector<std::string> keys, std::span<const std::uint64_t> hints) {
  assert(hints.empty() || hints.size() == keys.size());
  const std::size_t n = keys.size();
  std::vector<std::optional<Value>> out(n);
  if (n == 0) co_return out;
  auto groups = group_by_server(std::move(keys), hints);
  stats_.gets += n;
  co_await rpc_.fabric().node(self_).cpu().use(n * params_.per_key_cpu);

  // One batched get per daemon, parsed into a per-daemon result map.
  std::map<std::size_t, GetResult> parsed;
  std::vector<sim::Task<void>> calls;
  calls.reserve(groups.by_server.size());
  for (const auto& [server, group] : groups.by_server) {
    calls.push_back([](McClient& c, std::size_t srv, ByteBuf request,
                       GetResult& out_map) -> sim::Task<void> {
      auto resp = co_await c.call(srv, std::move(request), OpKind::kGet,
                                  ReplyShape::kTerminated);
      if (!resp) co_return;  // whole group misses
      auto p = memcache::parse_get_response(*resp);
      if (!p) co_return;
      out_map = std::move(*p);
    }(*this, server, memcache::encode_get(group), parsed[server]));
  }
  co_await sim::when_all(rpc_.fabric().loop(), std::move(calls));

  // Reassemble in input order, moving each hit out of its response map.
  std::size_t hit_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& key = groups.by_server[groups.server_of[i]][groups.pos_of[i]];
    auto node = parsed[groups.server_of[i]].extract(key);
    if (!node.empty()) {
      out[i].emplace(std::move(node.mapped()));
      ++hit_count;
    }
  }
  stats_.hits += hit_count;
  stats_.misses += n - hit_count;
  co_return out;
}

sim::Task<Expected<void>> McClient::set(std::string key, Buffer data,
                                        std::optional<std::uint64_t> hint,
                                        std::uint32_t flags,
                                        std::uint32_t exptime_s) {
  const std::size_t server = route(key, hint);
  return store_at(StoreVerb::kSet, server, std::move(key), std::move(data),
                  flags, exptime_s);
}

sim::Task<Expected<void>> McClient::add(std::string key, Buffer data,
                                        std::optional<std::uint64_t> hint,
                                        std::uint32_t flags,
                                        std::uint32_t exptime_s) {
  const std::size_t server = route(key, hint);
  return store_at(StoreVerb::kAdd, server, std::move(key), std::move(data),
                  flags, exptime_s);
}

sim::Task<Expected<Value>> McClient::gets(std::string key,
                                          std::optional<std::uint64_t> hint) {
  const std::size_t server = route(key, hint);
  return fetch_at(server, std::move(key), true, OnFailure::kMiss);
}

sim::Task<Expected<void>> McClient::cas(std::string key, Buffer data,
                                        std::uint64_t cas_id,
                                        std::optional<std::uint64_t> hint) {
  const std::size_t server = route(key, hint);
  return swap_at(server, std::move(key), std::move(data), cas_id, 0,
                 OnFailure::kMiss);
}

sim::Task<Expected<std::uint64_t>> McClient::incr(
    std::string key, std::uint64_t delta, std::optional<std::uint64_t> hint) {
  const std::size_t server = route(key, hint);
  auto resp = co_await call(server, memcache::encode_incr(key, delta),
                            OpKind::kMutation, ReplyShape::kLine);
  if (!resp) co_return Errc::kNoEnt;
  co_return memcache::parse_arith_response(*resp);
}

sim::Task<Expected<std::uint64_t>> McClient::decr(
    std::string key, std::uint64_t delta, std::optional<std::uint64_t> hint) {
  const std::size_t server = route(key, hint);
  auto resp = co_await call(server, memcache::encode_decr(key, delta),
                            OpKind::kMutation, ReplyShape::kLine);
  if (!resp) co_return Errc::kNoEnt;
  co_return memcache::parse_arith_response(*resp);
}

sim::Task<Expected<void>> McClient::del(std::string key,
                                        std::optional<std::uint64_t> hint) {
  const std::size_t server = route(key, hint);
  return del_at(server, std::move(key));
}

sim::Task<Expected<Value>> McClient::fetch_at(std::size_t server,
                                              std::string key, bool with_cas,
                                              OnFailure on_failure) {
  ++stats_.gets;
  co_await rpc_.fabric().node(self_).cpu().use(params_.per_key_cpu);
  const std::string keys[] = {key};
  // Named, then moved: passing the conditional straight into the coroutine
  // call copies the request.
  ByteBuf request =
      with_cas ? memcache::encode_gets(keys) : memcache::encode_get(keys);
  auto resp = co_await call(server, std::move(request), OpKind::kGet,
                            ReplyShape::kTerminated);
  if (!resp) {
    ++stats_.misses;
    co_return on_failure == OnFailure::kMiss ? Errc::kNoEnt : resp.error();
  }
  auto parsed = memcache::parse_get_response(*resp);
  if (!parsed) {
    ++stats_.misses;
    co_return Errc::kNoEnt;  // torn reply that still framed: degrade to miss
  }
  auto it = parsed->find(key);
  if (it == parsed->end()) {
    ++stats_.misses;
    co_return Errc::kNoEnt;
  }
  ++stats_.hits;
  co_return std::move(it->second);
}

sim::Task<Expected<void>> McClient::store_at(StoreVerb verb, std::size_t server,
                                             std::string key, Buffer data,
                                             std::uint32_t flags,
                                             std::uint32_t exptime_s) {
  ++stats_.sets;
  auto resp = co_await call(
      server, memcache::encode_store(verb, key, flags, exptime_s, data),
      OpKind::kMutation, ReplyShape::kLine);
  if (!resp) co_return refused_as_uncached(resp.error());
  auto parsed = memcache::parse_store_response(*resp);
  if (!parsed) co_return parsed.error();
  switch (*parsed) {
    case StoreReply::kStored:
      co_return Expected<void>{};
    case StoreReply::kNotStored:
      co_return Errc::kNotStored;
    case StoreReply::kServerError:
      co_return Errc::kTooBig;
  }
  co_return Errc::kProto;
}

sim::Task<Expected<void>> McClient::swap_at(std::size_t server, std::string key,
                                            Buffer data, std::uint64_t cas_id,
                                            std::uint32_t flags,
                                            OnFailure on_failure) {
  ++stats_.sets;
  auto resp =
      co_await call(server, memcache::encode_cas(key, flags, 0, data, cas_id),
                    OpKind::kMutation, ReplyShape::kLine);
  if (!resp) {
    co_return on_failure == OnFailure::kMiss ? Errc::kNoEnt : resp.error();
  }
  auto parsed = memcache::parse_cas_response(*resp);
  if (!parsed) co_return parsed.error();
  switch (*parsed) {
    case memcache::CasReply::kStored:
      co_return Expected<void>{};
    case memcache::CasReply::kExists:
      co_return Errc::kBusy;
    case memcache::CasReply::kNotFound:
      co_return Errc::kNoEnt;
  }
  co_return Errc::kProto;
}

sim::Task<Expected<void>> McClient::del_at(std::size_t server,
                                           std::string key) {
  ++stats_.deletes;
  auto resp = co_await call(server, memcache::encode_delete(key),
                            OpKind::kDelete, ReplyShape::kLine);
  if (!resp) co_return refused_as_uncached(resp.error());
  auto parsed = memcache::parse_delete_response(*resp);
  if (!parsed) co_return parsed.error();
  co_return Expected<void>{};  // DELETED and NOT_FOUND both fine
}

sim::Task<Expected<std::map<std::string, std::string>>>
McClient::server_stats(std::size_t server_index) {
  auto resp = co_await call(server_index, memcache::encode_stats(),
                            OpKind::kGet, ReplyShape::kTerminated);
  if (!resp) co_return resp.error();
  co_return memcache::parse_stats_response(*resp);
}

sim::Task<void> McClient::flush_all() {
  // One flush per daemon, issued concurrently: the wall-clock cost is one
  // round trip to the slowest daemon, not a serial sweep of the whole bank.
  std::vector<sim::Task<void>> calls;
  calls.reserve(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    calls.push_back([](McClient& c, std::size_t srv) -> sim::Task<void> {
      (void)co_await c.call(srv, memcache::encode_flush_all(), OpKind::kFlush,
                            ReplyShape::kLine);
    }(*this, s));
  }
  co_await sim::when_all(rpc_.fabric().loop(), std::move(calls));
}

}  // namespace imca::mcclient
