// libmemcache-style client: talks the ASCII protocol to an array of MCDs
// over the simulated fabric.
//
// One McClient instance lives at each CMCache/SMCache translator. It owns
// the server list, routes each key through a ServerSelector, and implements
// libmemcache's failure behaviour: a daemon that refuses connections is
// marked dead and subsequent operations on it become misses/no-ops — IMCa
// keeps working because writes are always durable at the file server first
// (paper §4.4).
//
// On top of that base (and off by default, so a client with default params
// behaves exactly like the original), the client implements the failover
// machinery of DESIGN.md §5d from the shared toolkit in net/failover.h:
//
//   * per-op deadlines (`op_timeout`) racing each RPC against the sim clock
//     (net::call_with_deadline);
//   * bounded retry with capped exponential backoff (net::Backoff) for
//     unclean outcomes (timeout, torn reply) — never for clean refusals,
//     which mean the daemon is down and, by the crash semantics, empty;
//   * one net::PeerHealth per daemon: ejection after `eject_after`
//     consecutive unclean failures (a dead or flaky daemon takes zero
//     traffic and its keys degrade to misses), or at once on a refusal;
//   * reintegration probes every `retry_dead_interval`, with a mandatory
//     purge-on-rejoin (flush the daemon, then mark it alive) so a revived
//     daemon can never serve blocks from before its crash window;
//   * writer mode (`writer`): sets/deletes retry until a clean outcome so a
//     purge is never silently lost, and deletes bypass the ejection list to
//     kill stale copies on a daemon that restarted behind the writer's back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/bytebuf.h"
#include "common/stat_fields.h"
#include "common/units.h"
#include "common/expected.h"
#include "mcclient/selector.h"
#include "memcache/protocol.h"
#include "net/failover.h"
#include "net/rpc.h"

namespace imca::mcclient {

struct ClientStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t dead_server_ops = 0;  // ops swallowed by a dead daemon
  // --- failover machinery (all zero when faults are off) ---
  std::uint64_t timeouts = 0;           // per-op deadlines that fired
  std::uint64_t truncated_replies = 0;  // torn replies caught by framing check
  std::uint64_t retries = 0;            // re-sent attempts (excludes the first)
  std::uint64_t ejections = 0;          // servers ejected for unclean streaks
  std::uint64_t rejoins = 0;            // dead->alive transitions
  std::uint64_t rejoin_purges = 0;      // flushes issued by rejoins (== rejoins)
  std::uint64_t bypass_deletes = 0;     // deletes sent despite a dead mark

  // Monotone counter CMCache snapshots around an MCD exchange to detect that
  // the exchange was degraded by a fault (any kind).
  std::uint64_t fault_signals() const noexcept {
    return timeouts + truncated_replies + dead_server_ops;
  }
  static constexpr auto fields() {
    using S = ClientStats;
    return stat_fields<S>({
        {"gets", &S::gets}, {"hits", &S::hits}, {"misses", &S::misses},
        {"sets", &S::sets}, {"deletes", &S::deletes},
        {"dead_server_ops", &S::dead_server_ops}, {"timeouts", &S::timeouts},
        {"truncated_replies", &S::truncated_replies}, {"retries", &S::retries},
        {"ejections", &S::ejections}, {"rejoins", &S::rejoins},
        {"rejoin_purges", &S::rejoin_purges},
        {"bypass_deletes", &S::bypass_deletes}
    });
  }
};

struct McClientParams {
  // Per-key cost at the client (key construction, request building, VALUE
  // parsing) — libmemcache does this work for every key of a multi-get.
  SimDuration per_key_cpu = 2 * kMicro;
  // Optional dedicated transport to the daemons (the paper's future-work
  // idea of reaching the cache bank over native IB verbs/RDMA instead of
  // TCP over IPoIB). Null = the fabric's default transport.
  std::optional<net::TransportParams> transport;

  // --- failover knobs (defaults = original libmemcache behaviour) ---
  // Per-attempt deadline; 0 = no deadline (wait for the transport).
  SimDuration op_timeout = 0;
  // Attempts per get/stat-shaped op (1 = no retry).
  std::size_t get_attempts = 1;
  // Attempts per mutation in writer mode.
  std::size_t mutation_attempts = 1;
  // Backoff before retry k (0-based): min(base * 2^k, cap).
  net::Backoff backoff{200 * kMicro, 5 * kMilli};
  // Eject a server after this many *consecutive* unclean failures; 0 = never.
  std::size_t eject_after = 3;
  // Probe an ejected server for rejoin after this long; 0 = never (a dead
  // server stays dead, as in the original client).
  SimDuration retry_dead_interval = 0;
  // Writer mode (the SMCache and write-back side of IMCa):
  //   * retry mutations until a clean outcome (success or refusal) instead
  //     of ejecting on unclean ones. A refusal means the daemon lost its
  //     contents with the crash, so skipping the publish/purge is safe; an
  //     unclean outcome means it may still hold the item, so give up only
  //     after `mutation_attempts` tries;
  //   * send deletes even to servers marked dead. A daemon that restarted
  //     behind this client's back may hold a freshly repaired copy of a
  //     block the writer is invalidating; the bypass delete kills it (and a
  //     successful one doubles as a rejoin probe).
  bool writer = false;
};

class McClient {
 public:
  // `self` is the node the client runs on; `servers` the MCD nodes.
  McClient(net::RpcSystem& rpc, net::NodeId self,
           std::vector<net::NodeId> servers,
           std::unique_ptr<ServerSelector> selector,
           McClientParams params = {});

  McClient(const McClient&) = delete;
  McClient& operator=(const McClient&) = delete;

  // The keyed ops route the key to its daemon and run the body of their
  // pinned-server twin below, degrading a failure: an unreachable daemon
  // reads as a miss (get, gets, cas) or as nothing cached (set, add, del:
  // kNoEnt for a refusal).

  // Fetch one value. kNoEnt on a miss; a dead daemon also reads as a miss.
  sim::Task<Expected<memcache::Value>> get(
      std::string key, std::optional<std::uint64_t> hint = std::nullopt);

  // Fetch several keys, grouped into one multi-get per daemon (libmemcache
  // batches this way). Keys absent from the result missed.
  sim::Task<memcache::GetResult> multi_get(
      std::vector<std::string> keys,
      std::span<const std::uint64_t> hints = {});

  // Like multi_get, but the result is aligned with the input: slot i holds
  // keys[i]'s value, or nullopt on a miss. Callers that need to know which
  // keys missed (CMCache's partial-hit read path) get that for free, with no
  // per-key map lookups of their own and the values moved, not copied.
  // Duplicate input keys are not supported (only one slot is filled).
  sim::Task<std::vector<std::optional<memcache::Value>>> multi_get_ordered(
      std::vector<std::string> keys,
      std::span<const std::uint64_t> hints = {});

  // Store a value; kNoEnt if the daemon is dead (callers ignore: the data
  // is merely uncached), kTooBig/kKeyTooLong surface protocol limits.
  sim::Task<Expected<void>> set(std::string key, Buffer data,
                                std::optional<std::uint64_t> hint = std::nullopt,
                                std::uint32_t flags = 0,
                                std::uint32_t exptime_s = 0);

  // Store only if the key is absent (memcached add). kNotStored when a value
  // is already cached — the verb read-repair wants: a repair can never
  // clobber a fresher publish.
  sim::Task<Expected<void>> add(std::string key, Buffer data,
                                std::optional<std::uint64_t> hint = std::nullopt,
                                std::uint32_t flags = 0,
                                std::uint32_t exptime_s = 0);

  // Fetch with the item's cas id (the protocol's gets).
  sim::Task<Expected<memcache::Value>> gets(
      std::string key, std::optional<std::uint64_t> hint = std::nullopt);

  // Compare-and-swap against a cas id from gets(). kBusy if another writer
  // got there first, kNoEnt if the item vanished.
  sim::Task<Expected<void>> cas(std::string key, Buffer data,
                                std::uint64_t cas_id,
                                std::optional<std::uint64_t> hint = std::nullopt);

  // Atomic counters (memcached incr/decr); returns the new value.
  sim::Task<Expected<std::uint64_t>> incr(
      std::string key, std::uint64_t delta,
      std::optional<std::uint64_t> hint = std::nullopt);
  sim::Task<Expected<std::uint64_t>> decr(
      std::string key, std::uint64_t delta,
      std::optional<std::uint64_t> hint = std::nullopt);

  // Remove a key (used by SMCache purge hooks). Missing keys are fine.
  sim::Task<Expected<void>> del(std::string key,
                                std::optional<std::uint64_t> hint = std::nullopt);

  // --- pinned-server ops (write-back replication, DESIGN.md §5j) ---
  //
  // The write-back tier stores the same key on K *distinct* daemons, which
  // key hashing cannot guarantee; these variants address a daemon by index
  // (replica r of a key lives at (primary_of(key) + r) % server_count())
  // and otherwise run the full failover path of their routed twins. The
  // writes degrade a refusal like their twins; the reads report a failed
  // call as is, so the caller can tell a miss from a down daemon.
  std::size_t primary_of(std::string_view key) const {
    return route(key, std::nullopt);
  }
  sim::Task<Expected<memcache::Value>> get_at(std::size_t server,
                                              std::string key) {
    return fetch_at(server, std::move(key), false, OnFailure::kReport);
  }
  sim::Task<Expected<memcache::Value>> gets_at(std::size_t server,
                                               std::string key) {
    return fetch_at(server, std::move(key), true, OnFailure::kReport);
  }
  sim::Task<Expected<void>> set_at(std::size_t server, std::string key,
                                   Buffer data, std::uint32_t flags = 0,
                                   std::uint32_t exptime_s = 0) {
    return store_at(memcache::StoreVerb::kSet, server, std::move(key),
                    std::move(data), flags, exptime_s);
  }
  sim::Task<Expected<void>> add_at(std::size_t server, std::string key,
                                   Buffer data, std::uint32_t flags = 0,
                                   std::uint32_t exptime_s = 0) {
    return store_at(memcache::StoreVerb::kAdd, server, std::move(key),
                    std::move(data), flags, exptime_s);
  }
  sim::Task<Expected<void>> cas_at(std::size_t server, std::string key,
                                   Buffer data, std::uint64_t cas_id,
                                   std::uint32_t flags = 0) {
    return swap_at(server, std::move(key), std::move(data), cas_id, flags,
                   OnFailure::kReport);
  }
  sim::Task<Expected<void>> del_at(std::size_t server, std::string key);

  // Per-daemon "stats" (the paper reads MCD miss/eviction counters).
  sim::Task<Expected<std::map<std::string, std::string>>> server_stats(
      std::size_t server_index);

  // Drop every item on every live daemon (one concurrent RPC per daemon).
  // Dead daemons are skipped, so a crashed MCD can't stall the sweep.
  sim::Task<void> flush_all();

  // The event loop this client's fabric runs on; translators built over the
  // client use it to spawn fire-and-forget work (read-repair sets) and to
  // construct synchronization primitives.
  sim::EventLoop& loop() const noexcept { return rpc_.fabric().loop(); }

  std::size_t server_count() const noexcept { return servers_.size(); }
  const ClientStats& stats() const noexcept { return stats_; }
  const ServerSelector& selector() const noexcept { return *selector_; }
  bool server_dead(std::size_t i) const { return health_.at(i).down(); }

 private:
  // How an op's outcome maps onto the failover machinery.
  enum class OpKind : std::uint8_t {
    kGet,       // degrade to a miss; ejection applies
    kMutation,  // retried-until-clean in writer mode
    kDelete,    // like kMutation, plus the ejection bypass
    kFlush,     // best-effort sweep; never retried
  };
  // Wire framing of an intact reply, so torn (short-read) replies can be
  // classified as retryable before the protocol parser sees them.
  enum class ReplyShape : std::uint8_t {
    kTerminated,  // ends with "END\r\n" (get / gets / stats)
    kLine,        // ends with "\r\n"    (store / delete / arith / flush)
  };

  std::size_t route(std::string_view key,
                    std::optional<std::uint64_t> hint) const {
    return selector_->pick(key, hint, servers_.size());
  }

  // Keys partitioned per daemon (moved, not copied), plus the inverse map so
  // ordered results can be reassembled: input slot i went to daemon
  // server_of[i] at position pos_of[i] within that daemon's group.
  struct KeyGroups {
    std::map<std::size_t, std::vector<std::string>> by_server;
    std::vector<std::size_t> server_of;
    std::vector<std::size_t> pos_of;
  };
  KeyGroups group_by_server(std::vector<std::string> keys,
                            std::span<const std::uint64_t> hints) const;

  // Full failover path: dead gate (with delete bypass and rejoin probes),
  // per-attempt deadline, framing check, retry/backoff, ejection.
  sim::Task<Expected<ByteBuf>> call(std::size_t server, ByteBuf request,
                                    OpKind op, ReplyShape shape);
  // One attempt: the raw RPC, raced against `op_timeout` when it is set.
  sim::Task<Expected<ByteBuf>> attempt(std::size_t server, ByteBuf request) {
    return net::call_with_deadline(
        rpc_, self_, servers_[server], net::kPortMemcached,
        std::move(request), params_.op_timeout,
        params_.transport ? &*params_.transport : nullptr);
  }
  // Purge-then-mark-alive. Every dead->alive transition funnels through here.
  sim::Task<bool> try_rejoin(std::size_t server);
  // What a failed call makes of a one-key read: the keyed ops degrade it
  // to a miss, the pinned twins report it. A keyed op passes this down
  // instead of wrapping its twin, so it costs no extra coroutine frame.
  enum class OnFailure : std::uint8_t { kReport, kMiss };
  // The bodies of get/gets/get_at/gets_at, set/add/set_at/add_at and
  // cas/cas_at.
  sim::Task<Expected<memcache::Value>> fetch_at(std::size_t server,
                                                std::string key,
                                                bool with_cas,
                                                OnFailure on_failure);
  sim::Task<Expected<void>> store_at(memcache::StoreVerb verb,
                                     std::size_t server, std::string key,
                                     Buffer data, std::uint32_t flags,
                                     std::uint32_t exptime_s);
  sim::Task<Expected<void>> swap_at(std::size_t server, std::string key,
                                    Buffer data, std::uint64_t cas_id,
                                    std::uint32_t flags, OnFailure on_failure);

  static bool reply_intact(const ByteBuf& resp, ReplyShape shape);

  net::RpcSystem& rpc_;
  net::NodeId self_;
  std::vector<net::NodeId> servers_;
  std::unique_ptr<ServerSelector> selector_;
  McClientParams params_;
  std::vector<net::PeerHealth> health_;  // one per daemon
  ClientStats stats_;
};

}  // namespace imca::mcclient
