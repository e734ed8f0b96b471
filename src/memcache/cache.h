// The memcached storage engine: hash table + per-slab-class LRU + lazy
// expiration, with real bytes stored per item. Items live in one pool and
// are found through a flat open-addressing index, so every op hashes its key
// once and probes once (DESIGN.md §5l).
//
// Semantics follow memcached 1.2 (the daemon the paper deploys):
//   * keys are at most 250 bytes, items at most 1 MB including overhead;
//   * set always stores; add only if absent; replace only if present;
//   * append/prepend splice bytes onto an existing item;
//   * expired items are removed lazily, on the access that finds them;
//   * when the memory limit is hit, the least-recently-used item *of the
//     same slab class* is evicted to make room ("MCDs are self-managing",
//     paper §4.4).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/errc.h"
#include "common/expected.h"
#include "common/stat_fields.h"
#include "common/units.h"
#include "memcache/slab.h"

namespace imca::memcache {

inline constexpr std::uint64_t kMaxKeyLen = 250;

// Reserved item-flags bit marking write-back dirty data (DESIGN.md §5j).
// Items carrying it survive a clean flush ("flush_all clean"), which is what
// a rejoin purge issues: a revived daemon must drop every cacheable copy it
// could serve stale, but dirty items are the *only* copy of acked bytes and
// may never be purged by a reader's probe. A crashed daemon restarts empty
// regardless, so the bit only matters on daemons that stayed up.
inline constexpr std::uint32_t kWbDirtyFlag = 0x40000000u;

struct Value {
  std::uint32_t flags = 0;
  // Shared segments: a get hands back views of the stored item, and a store
  // adopts the request's segments — the slab never re-copies payload bytes.
  Buffer data;
  // Unique per stored version; returned by gets and checked by cas.
  std::uint64_t cas = 0;
};

struct CacheStats {
  std::uint64_t cmd_get = 0;
  std::uint64_t cmd_set = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired_unfetched = 0;
  std::uint64_t curr_items = 0;
  std::uint64_t bytes = 0;  // key+value+overhead of live items
  static constexpr auto fields() {
    using S = CacheStats;
    return stat_fields<S>({
        {"cmd_get", &S::cmd_get}, {"cmd_set", &S::cmd_set},
        {"get_hits", &S::get_hits}, {"get_misses", &S::get_misses},
        {"evictions", &S::evictions},
        {"expired_unfetched", &S::expired_unfetched},
        {"curr_items", &S::curr_items}, {"bytes", &S::bytes}
    });
  }
};

class McCache {
 public:
  explicit McCache(std::uint64_t memory_limit)
      : slabs_(memory_limit), index_(16), lru_(slabs_.num_classes()) {}

  McCache(const McCache&) = delete;
  McCache& operator=(const McCache&) = delete;

  // Store unconditionally. `expire_at` of 0 means "never" (IMCa's usage).
  Expected<void> set(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data,
                     SimTime now);

  // Store only if the key is absent / present.
  Expected<void> add(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data, SimTime now);
  Expected<void> replace(std::string_view key, std::uint32_t flags,
                         SimTime expire_at, Buffer data, SimTime now);

  // Splice bytes after / before an existing item's data.
  Expected<void> append(std::string_view key, Buffer data, SimTime now);
  Expected<void> prepend(std::string_view key, Buffer data, SimTime now);

  // Fetch; refreshes LRU position. kNoEnt on miss or lazy expiry.
  Expected<Value> get(std::string_view key, SimTime now);

  // Compare-and-swap: store only if the item's current cas id equals
  // `expected_cas`. kNoEnt if absent, kBusy ("EXISTS") on a cas mismatch.
  Expected<void> cas(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data,
                     std::uint64_t expected_cas, SimTime now);

  // Arithmetic on a decimal-ASCII value (memcached's incr/decr). Returns the
  // new value. kNoEnt if absent; kInval if the stored data is not a number.
  // decr clamps at zero; incr wraps at 2^64, as memcached does.
  Expected<std::uint64_t> incr(std::string_view key, std::uint64_t delta,
                               SimTime now);
  Expected<std::uint64_t> decr(std::string_view key, std::uint64_t delta,
                               SimTime now);

  Expected<void> del(std::string_view key);

  // Drop everything (memcached's flush_all).
  void flush_all();

  // Drop every item except those whose flags carry `keep_mask` bits — the
  // clean flush a rejoin purge uses so write-back dirty replicas survive.
  void flush_clean(std::uint32_t keep_mask = kWbDirtyFlag);

  const CacheStats& stats() const noexcept { return stats_; }
  const SlabAllocator& slabs() const noexcept { return slabs_; }
  std::size_t item_count() const noexcept { return live_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // One pooled item. The key lives here once; the index holds only ids.
  // A free pool slot has slab_class == kNil.
  struct Item {
    std::string key;
    std::uint64_t hash = 0;
    Buffer data;
    SimTime expire_at = 0;
    std::uint64_t cas = 0;
    std::uint32_t flags = 0;
    std::uint32_t slab_class = kNil;
  };

  // An item's intrusive per-class LRU links (item ids), kept apart from the
  // items so an LRU bump touches only these 8 bytes of each neighbour. A
  // free pool slot chains the free list through `next`.
  struct Links {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  // One index entry: an item id and the low 32 bits of its key's hash. The
  // tag lets a probe skip non-matching entries, and gives deletion and
  // rehash each entry's home slot, without touching items.
  struct Slot {
    std::uint32_t id = kNil;
    std::uint32_t tag = 0;
  };

  // Ends of one slab class's LRU list: head = most recently used.
  struct Lru {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // Where a key's probe ended: its item id and index slot, or kNil and the
  // empty slot an insert would take.
  struct Probe {
    std::uint64_t hash;
    std::size_t slot;
    std::uint32_t id;
  };

  static std::uint64_t total_size(std::string_view key, std::uint64_t value_len) {
    return key.size() + value_len + kItemOverhead;
  }
  static bool expired(const Item& item, SimTime now) {
    return item.expire_at != 0 && item.expire_at <= now;
  }

  Probe find(std::string_view key, std::uint64_t hash) const;
  Probe find(std::string_view key) const;
  // find(), then reap the item if it has expired (counted as expired
  // unfetched), so an expired item reads as absent. The one lookup of every
  // verb that honours expiry.
  Probe find_live(std::string_view key, SimTime now);

  // (Re)store `key` with one chunk of its class. `at` is the key's probe:
  // an existing item is updated in place (it keeps its id and slot); a new
  // one takes the probed slot. A failure leaves the key absent.
  Expected<void> store(std::string_view key, Probe at, std::uint32_t flags,
                       SimTime expire_at, Buffer data);
  Expected<std::uint64_t> arith(std::string_view key, std::uint64_t delta,
                                bool up, SimTime now);
  // Return `id`'s chunk and bytes (unlinks it from its LRU); the item stays
  // indexed. release() then frees the id and its index slot.
  void detach(std::uint32_t id);
  void release(std::uint32_t id);
  void erase(std::uint32_t id) {
    detach(id);
    release(id);
  }
  // Make a chunk of `cls` available, evicting that class's LRU tail if
  // needed; sets `evicted` when it did.
  Expected<void> claim_chunk(std::uint32_t cls, bool& evicted);

  void lru_push_front(std::uint32_t id, std::uint32_t cls);
  void lru_unlink(std::uint32_t id, std::uint32_t cls);

  std::uint32_t alloc_id();
  // Index slot holding `id` (the item must be indexed).
  std::size_t slot_of(std::uint32_t id) const;
  // Double the index when one more entry would push its load past 1/2.
  // Returns true if it rehashed (probed slots are then stale).
  bool reserve_one();

  SlabAllocator slabs_;
  std::uint64_t next_cas_ = 1;
  std::vector<Item> items_;
  std::vector<Links> links_;  // parallel to items_
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
  // Open-addressing index of item ids: power-of-two size, linear probing,
  // backward-shift deletion, load <= 1/2.
  std::vector<Slot> index_;
  std::vector<Lru> lru_;
  CacheStats stats_;
};

}  // namespace imca::memcache
