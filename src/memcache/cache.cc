#include "memcache/cache.h"

#include <functional>

namespace imca::memcache {

McCache::Probe McCache::find(std::string_view key, std::uint64_t hash) const {
  const std::size_t mask = index_.size() - 1;
  const auto tag = static_cast<std::uint32_t>(hash);
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const Slot s = index_[slot];
    if (s.id == kNil) return {hash, slot, kNil};
    if (s.tag != tag) continue;
    const Item& item = items_[s.id];
    if (item.hash == hash && item.key == key) return {hash, slot, s.id};
  }
}

McCache::Probe McCache::find(std::string_view key) const {
  return find(key, std::hash<std::string_view>{}(key));
}

McCache::Probe McCache::find_live(std::string_view key, SimTime now) {
  const Probe p = find(key);
  if (p.id == kNil || !expired(items_[p.id], now)) return p;
  erase(p.id);
  ++stats_.expired_unfetched;
  // The backward shift may have moved a neighbour into the reaped slot.
  return find(key, p.hash);
}

std::size_t McCache::slot_of(std::uint32_t id) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = items_[id].hash & mask;
  while (index_[slot].id != id) slot = (slot + 1) & mask;
  return slot;
}

bool McCache::reserve_one() {
  if (2 * (live_ + 1) <= index_.size()) return false;
  std::vector<Slot> old(2 * index_.size());
  old.swap(index_);
  const std::size_t mask = index_.size() - 1;
  for (const Slot s : old) {
    if (s.id == kNil) continue;
    std::size_t slot = s.tag & mask;
    while (index_[slot].id != kNil) slot = (slot + 1) & mask;
    index_[slot] = s;
  }
  return true;
}

std::uint32_t McCache::alloc_id() {
  if (free_head_ == kNil) {
    items_.emplace_back();
    links_.emplace_back();
    return static_cast<std::uint32_t>(items_.size() - 1);
  }
  const std::uint32_t id = free_head_;
  free_head_ = links_[id].next;
  return id;
}

void McCache::lru_push_front(std::uint32_t id, std::uint32_t cls) {
  Lru& lru = lru_[cls];
  links_[id] = {kNil, lru.head};
  (lru.head != kNil ? links_[lru.head].prev : lru.tail) = id;
  lru.head = id;
}

void McCache::lru_unlink(std::uint32_t id, std::uint32_t cls) {
  Lru& lru = lru_[cls];
  const Links l = links_[id];
  (l.prev != kNil ? links_[l.prev].next : lru.head) = l.next;
  (l.next != kNil ? links_[l.next].prev : lru.tail) = l.prev;
}

void McCache::detach(std::uint32_t id) {
  const Item& item = items_[id];
  lru_unlink(id, item.slab_class);
  slabs_.free(item.slab_class);
  stats_.bytes -= total_size(item.key, item.data.size());
  --stats_.curr_items;
}

void McCache::release(std::uint32_t id) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies (cyclically) after the hole, so
  // every remaining key stays reachable from its home with no tombstones.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = slot_of(id);
  for (std::size_t j = (hole + 1) & mask; index_[j].id != kNil;
       j = (j + 1) & mask) {
    const std::size_t home = index_[j].tag & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = Slot{};
  --live_;

  Item& item = items_[id];
  item.data = Buffer{};  // drop the segment references now
  item.slab_class = kNil;
  links_[id].next = free_head_;
  free_head_ = id;
}

Expected<void> McCache::claim_chunk(std::uint32_t cls, bool& evicted) {
  auto r = slabs_.alloc(cls);
  if (r) return {};
  if (r.error() != Errc::kNoSpc) return r.error();
  // Memory limit reached: evict the least-recently-used item of this class.
  const std::uint32_t victim = lru_[cls].tail;
  if (victim == kNil) return Errc::kNoSpc;  // class has no pages and no victims
  erase(victim);
  ++stats_.evictions;
  evicted = true;
  return slabs_.alloc(cls);
}

Expected<void> McCache::store(std::string_view key, Probe at,
                              std::uint32_t flags, SimTime expire_at,
                              Buffer data) {
  if (key.size() > kMaxKeyLen) return Errc::kKeyTooLong;
  auto cls = slabs_.class_for(total_size(key, data.size()));
  if (!cls) return cls.error();

  // An existing item gives up its chunk first (set overwrites), but keeps
  // its id and index slot for the new version.
  if (at.id != kNil) detach(at.id);
  bool evicted = false;
  if (auto c = claim_chunk(*cls, evicted); !c) {
    if (at.id != kNil) release(at.id);
    return c.error();
  }

  std::uint32_t id = at.id;
  if (id == kNil) {
    // An eviction or a rehash may have moved the probed empty slot.
    if (reserve_one() || evicted) at = find(key, at.hash);
    id = alloc_id();
    index_[at.slot] = {id, static_cast<std::uint32_t>(at.hash)};
    ++live_;
    items_[id].key.assign(key);
    items_[id].hash = at.hash;
  }
  Item& item = items_[id];
  item.flags = flags;
  item.expire_at = expire_at;
  item.data = std::move(data);
  item.slab_class = *cls;
  item.cas = next_cas_++;
  lru_push_front(id, *cls);

  stats_.bytes += total_size(key, item.data.size());
  ++stats_.curr_items;
  return {};
}

Expected<void> McCache::set(std::string_view key, std::uint32_t flags,
                            SimTime expire_at, Buffer data, SimTime) {
  ++stats_.cmd_set;
  return store(key, find(key), flags, expire_at, std::move(data));
}

Expected<void> McCache::add(std::string_view key, std::uint32_t flags,
                            SimTime expire_at, Buffer data, SimTime now) {
  ++stats_.cmd_set;
  const Probe p = find_live(key, now);
  if (p.id != kNil) return Errc::kNotStored;
  return store(key, p, flags, expire_at, std::move(data));
}

Expected<void> McCache::replace(std::string_view key, std::uint32_t flags,
                                SimTime expire_at, Buffer data, SimTime now) {
  ++stats_.cmd_set;
  const Probe p = find_live(key, now);
  if (p.id == kNil) return Errc::kNotStored;
  return store(key, p, flags, expire_at, std::move(data));
}

Expected<void> McCache::append(std::string_view key, Buffer data,
                               SimTime now) {
  ++stats_.cmd_set;
  const Probe p = find_live(key, now);
  if (p.id == kNil) return Errc::kNotStored;
  const Item& old = items_[p.id];
  Buffer merged = old.data;  // shares segments
  merged.append(std::move(data));
  return store(key, p, old.flags, old.expire_at, std::move(merged));
}

Expected<void> McCache::prepend(std::string_view key, Buffer data,
                                SimTime now) {
  ++stats_.cmd_set;
  const Probe p = find_live(key, now);
  if (p.id == kNil) return Errc::kNotStored;
  const Item& old = items_[p.id];
  Buffer merged = std::move(data);
  merged.append(old.data);
  return store(key, p, old.flags, old.expire_at, std::move(merged));
}

Expected<Value> McCache::get(std::string_view key, SimTime now) {
  ++stats_.cmd_get;
  const Probe p = find_live(key, now);
  if (p.id == kNil) {
    ++stats_.get_misses;
    return Errc::kNoEnt;
  }
  const Item& item = items_[p.id];
  if (lru_[item.slab_class].head != p.id) {  // refresh LRU position
    lru_unlink(p.id, item.slab_class);
    lru_push_front(p.id, item.slab_class);
  }
  ++stats_.get_hits;
  return Value{item.flags, item.data, item.cas};
}

Expected<void> McCache::cas(std::string_view key, std::uint32_t flags,
                            SimTime expire_at, Buffer data,
                            std::uint64_t expected_cas, SimTime now) {
  ++stats_.cmd_set;
  const Probe p = find_live(key, now);
  if (p.id == kNil) return Errc::kNoEnt;  // NOT_FOUND
  if (items_[p.id].cas != expected_cas) return Errc::kBusy;  // EXISTS
  return store(key, p, flags, expire_at, std::move(data));
}

Expected<std::uint64_t> McCache::arith(std::string_view key,
                                       std::uint64_t delta, bool up,
                                       SimTime now) {
  ++stats_.cmd_set;
  const Probe p = find_live(key, now);
  if (p.id == kNil) return Errc::kNoEnt;
  const Item& item = items_[p.id];
  // Parse the decimal-ASCII value in place, as memcached does.
  std::uint64_t value = 0;
  if (item.data.empty()) return Errc::kInval;
  for (const auto b : item.data) {
    const char c = static_cast<char>(b);
    if (c < '0' || c > '9') return Errc::kInval;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (up) {
    value += delta;  // wraps at 2^64, like memcached
  } else {
    value = delta > value ? 0 : value - delta;  // decr clamps at zero
  }
  auto r = store(key, p, item.flags, item.expire_at,
                 Buffer::of_string(std::to_string(value)));
  if (!r) return r.error();
  return value;
}

Expected<std::uint64_t> McCache::incr(std::string_view key,
                                      std::uint64_t delta, SimTime now) {
  return arith(key, delta, /*up=*/true, now);
}

Expected<std::uint64_t> McCache::decr(std::string_view key,
                                      std::uint64_t delta, SimTime now) {
  return arith(key, delta, /*up=*/false, now);
}

Expected<void> McCache::del(std::string_view key) {
  const Probe p = find(key);
  if (p.id == kNil) return Errc::kNoEnt;
  erase(p.id);
  return {};
}

void McCache::flush_all() { flush_clean(0); }

void McCache::flush_clean(std::uint32_t keep_mask) {
  for (std::uint32_t id = 0; id < items_.size(); ++id) {
    const Item& item = items_[id];
    if (item.slab_class != kNil && !(item.flags & keep_mask)) erase(id);
  }
}

}  // namespace imca::memcache
