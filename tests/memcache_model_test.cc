// Model check of the McCache engine: seeded random op sequences over every
// verb, run side by side against an in-test reference built from the most
// obvious containers (std::map for the items, one std::list per slab class
// for the LRU). Every return value, every CacheStats field, item_count, the
// slab allocator's per-class chunk counts and the eviction victim sequence
// must agree after every op.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytebuf.h"
#include "memcache/cache.h"

namespace imca::memcache {
namespace {

// The reference engine: memcached 1.2 semantics, written for clarity.
class RefCache {
 public:
  explicit RefCache(std::uint64_t limit)
      : slabs_(limit), lru_(slabs_.num_classes()) {}

  Expected<void> set(const std::string& k, std::uint32_t flags, SimTime exp,
                     std::string data) {
    ++stats_.cmd_set;
    return store(k, flags, exp, std::move(data));
  }
  Expected<void> add(const std::string& k, std::uint32_t flags, SimTime exp,
                     std::string data, SimTime now) {
    ++stats_.cmd_set;
    if (live(k, now)) return Errc::kNotStored;
    return store(k, flags, exp, std::move(data));
  }
  Expected<void> replace(const std::string& k, std::uint32_t flags,
                         SimTime exp, std::string data, SimTime now) {
    ++stats_.cmd_set;
    if (!live(k, now)) return Errc::kNotStored;
    return store(k, flags, exp, std::move(data));
  }
  Expected<void> splice(const std::string& k, const std::string& data,
                        bool after, SimTime now) {
    ++stats_.cmd_set;
    if (!live(k, now)) return Errc::kNotStored;
    const Item old = items_.at(k);
    return store(k, old.flags, old.exp,
                 after ? old.data + data : data + old.data);
  }
  struct Item {
    std::uint32_t flags = 0;
    SimTime exp = 0;
    std::string data;
    std::uint32_t cls = 0;
    std::uint64_t cas = 0;
    std::list<std::string>::iterator pos;
  };

  // nullptr on a miss.
  const Item* get(const std::string& k, SimTime now) {
    ++stats_.cmd_get;
    if (!live(k, now)) {
      ++stats_.get_misses;
      return nullptr;
    }
    Item& it = items_.at(k);
    auto& lru = lru_[it.cls];
    lru.splice(lru.begin(), lru, it.pos);
    ++stats_.get_hits;
    return &it;
  }
  Expected<void> cas(const std::string& k, std::uint32_t flags, SimTime exp,
                     std::string data, std::uint64_t expected, SimTime now) {
    ++stats_.cmd_set;
    if (!live(k, now)) return Errc::kNoEnt;
    if (items_.at(k).cas != expected) return Errc::kBusy;
    return store(k, flags, exp, std::move(data));
  }
  Expected<std::uint64_t> arith(const std::string& k, std::uint64_t delta,
                                bool up, SimTime now) {
    ++stats_.cmd_set;
    if (!live(k, now)) return Errc::kNoEnt;
    const Item old = items_.at(k);
    if (old.data.empty()) return Errc::kInval;
    std::uint64_t v = 0;
    for (const char c : old.data) {
      if (c < '0' || c > '9') return Errc::kInval;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    v = up ? v + delta : (delta > v ? 0 : v - delta);
    auto r = store(k, old.flags, old.exp, std::to_string(v));
    if (!r) return r.error();
    return v;
  }
  Expected<void> del(const std::string& k) {
    auto it = items_.find(k);
    if (it == items_.end()) return Errc::kNoEnt;
    erase(it, false, false);
    return {};
  }
  void flush(std::uint32_t keep_mask) {
    for (auto it = items_.begin(); it != items_.end();) {
      if (it->second.flags & keep_mask) {
        ++it;
      } else {
        erase(it++, false, false);
      }
    }
  }

  const CacheStats& stats() const { return stats_; }
  const SlabAllocator& slabs() const { return slabs_; }
  std::size_t item_count() const { return items_.size(); }
  // (key, slab class) of each eviction since the last call, oldest first.
  std::vector<std::pair<std::string, std::uint32_t>> take_victims() {
    return std::exchange(victims_, {});
  }
  std::uint64_t cas_of(const std::string& k) const {
    auto it = items_.find(k);
    return it == items_.end() ? 0 : it->second.cas;
  }

 private:
  static std::uint64_t total(const std::string& k, std::size_t n) {
    return k.size() + n + kItemOverhead;
  }

  bool live(const std::string& k, SimTime now) {
    auto it = items_.find(k);
    if (it == items_.end()) return false;
    if (it->second.exp != 0 && it->second.exp <= now) {
      erase(it, false, true);
      return false;
    }
    return true;
  }

  void erase(std::map<std::string, Item>::iterator it, bool evicted,
             bool expired) {
    lru_[it->second.cls].erase(it->second.pos);
    slabs_.free(it->second.cls);
    stats_.bytes -= total(it->first, it->second.data.size());
    --stats_.curr_items;
    if (evicted) {
      ++stats_.evictions;
      victims_.emplace_back(it->first, it->second.cls);
    }
    if (expired) ++stats_.expired_unfetched;
    items_.erase(it);
  }

  Expected<void> store(const std::string& k, std::uint32_t flags, SimTime exp,
                       std::string data) {
    if (k.size() > kMaxKeyLen) return Errc::kKeyTooLong;
    auto cls = slabs_.class_for(total(k, data.size()));
    if (!cls) return cls.error();
    if (auto it = items_.find(k); it != items_.end()) erase(it, false, false);
    if (!slabs_.alloc(*cls)) {
      auto& lru = lru_[*cls];
      if (lru.empty()) return Errc::kNoSpc;
      erase(items_.find(lru.back()), true, false);
      if (!slabs_.alloc(*cls)) return Errc::kNoSpc;
    }
    stats_.bytes += total(k, data.size());
    ++stats_.curr_items;
    lru_[*cls].push_front(k);
    items_[k] = Item{flags, exp, std::move(data), *cls, next_cas_++,
                     lru_[*cls].begin()};
    return {};
  }

  SlabAllocator slabs_;
  std::vector<std::list<std::string>> lru_;
  std::map<std::string, Item> items_;
  std::uint64_t next_cas_ = 1;
  CacheStats stats_;
  std::vector<std::pair<std::string, std::uint32_t>> victims_;
};

struct ModelParams {
  std::uint64_t memory_limit;
  std::size_t key_space;
  std::size_t ops;
  // Fraction of stores that carry an expiry time.
  double expiring = 0.1;
  // Fraction of ops that are flush_all / flush_clean.
  double flushes = 0.0005;
  // Fraction of non-counter values of 900 bytes or more.
  double large = 0.3;
  // Keys 0..prefill-1 are set, in order, before the random ops start.
  std::size_t prefill = 0;
  // Fraction of non-counter values of ~300 KiB: a class of only a few
  // chunks per page, so nearly every such store evicts.
  double huge = 0;
};

class ModelRun {
 public:
  ModelRun(const ModelParams& p, std::uint32_t seed)
      : p_(p), rng_(seed), cache_(p.memory_limit), ref_(p.memory_limit) {}

  void run() {
    for (std::size_t k = 0; k < p_.prefill; ++k) {
      std::string v = value();
      expect_same(cache_.set(key(k), 0, 0, to_buffer(v), now_),
                  ref_.set(key(k), 0, 0, v), k);
      check_state(k, /*slabs=*/false);
    }
    for (std::size_t i = 0; i < p_.ops && !::testing::Test::HasFailure();
         ++i) {
      now_ += pick(0, 3);
      step(i);
      check_state(i, /*slabs=*/i % 16 == 0);
    }
    // Final sweep: every key reads the same from both engines.
    for (std::size_t k = 0; k < p_.key_space; ++k) {
      expect_same_get(key(k), p_.ops);
    }
    check_state(p_.ops, /*slabs=*/true);
  }

  const CacheStats& stats() const { return cache_.stats(); }
  std::size_t peak_items() const { return peak_items_; }
  std::size_t classes_evicting() const { return evicting_.size(); }

 private:
  std::uint64_t pick(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng_);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(rng_); }

  // Keys of assorted lengths so items land in several slab classes; a few
  // exceed the 250-byte ceiling.
  static std::string key(std::size_t k) {
    std::string s = "key:" + std::to_string(k);
    if (k % 97 == 0) s.append(kMaxKeyLen, 'L');
    else if (k % 7 == 0) s.append(40, 'm');
    return s;
  }

  // Sizes cluster in a few narrow bands, so each band fills (and evicts
  // from) one or two slab classes.
  std::string value() {
    const auto kind = pick(0, 99);
    if (kind < 15) {
      return std::to_string(pick(0, 1'000'000));  // a counter for incr/decr
    }
    std::size_t n;
    if (p_.huge > 0 && chance(p_.huge)) {
      n = pick(300'000, 330'000);
    } else if (kind == 99) {
      n = kMaxItemTotal;  // too big for any class
    } else if (chance(p_.large)) {
      n = chance(0.5) ? pick(900, 1000) : pick(5000, 5200);
    } else {
      n = chance(0.5) ? pick(0, 30) : pick(150, 170);
    }
    std::string s(n, static_cast<char>('a' + pick(0, 25)));
    if (n > 0) s.back() = static_cast<char>('0' + pick(0, 9));
    return s;
  }

  SimTime expiry() {
    return chance(p_.expiring) ? now_ + pick(1, 200) : 0;
  }

  std::uint32_t flags() {
    return chance(0.2) ? kWbDirtyFlag | static_cast<std::uint32_t>(pick(0, 3))
                       : static_cast<std::uint32_t>(pick(0, 3));
  }

  static void expect_same(const Expected<void>& a, const Expected<void>& b,
                          std::size_t op) {
    ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
    if (!a) {
      ASSERT_EQ(a.error(), b.error()) << "op " << op;
    }
  }

  void expect_same_get(const std::string& k, std::size_t op) {
    auto a = cache_.get(k, now_);
    auto b = ref_.get(k, now_);
    ASSERT_EQ(a.has_value(), b != nullptr) << "op " << op << " key " << k;
    if (!a) {
      ASSERT_EQ(a.error(), Errc::kNoEnt) << "op " << op;
      return;
    }
    EXPECT_EQ(a->flags, b->flags) << "op " << op;
    EXPECT_EQ(a->cas, b->cas) << "op " << op;
    EXPECT_TRUE(a->data.content_equals(std::as_bytes(std::span(b->data))))
        << "op " << op << " key " << k;
  }

  void step(std::size_t op) {
    const std::string k = key(pick(0, p_.key_space - 1));
    const auto verb = pick(0, 99);
    if (chance(p_.flushes)) {
      if (chance(0.5)) {
        cache_.flush_all();
        ref_.flush(0);
      } else {
        cache_.flush_clean();
        ref_.flush(kWbDirtyFlag);
      }
    } else if (verb < 30) {
      const auto f = flags();
      const auto e = expiry();
      std::string v = value();
      expect_same(cache_.set(k, f, e, to_buffer(v), now_),
                  ref_.set(k, f, e, v), op);
    } else if (verb < 60) {
      expect_same_get(k, op);
    } else if (verb < 66) {
      const auto f = flags();
      const auto e = expiry();
      std::string v = value();
      expect_same(cache_.add(k, f, e, to_buffer(v), now_),
                  ref_.add(k, f, e, v, now_), op);
    } else if (verb < 71) {
      const auto f = flags();
      const auto e = expiry();
      std::string v = value();
      expect_same(cache_.replace(k, f, e, to_buffer(v), now_),
                  ref_.replace(k, f, e, v, now_), op);
    } else if (verb < 76) {
      const bool after = chance(0.5);
      const std::string v = chance(0.5) ? std::to_string(pick(0, 9)) : value();
      expect_same(after ? cache_.append(k, to_buffer(v), now_)
                        : cache_.prepend(k, to_buffer(v), now_),
                  ref_.splice(k, v, after, now_), op);
    } else if (verb < 82) {
      // Half the cas attempts carry the current id, half a stale one.
      const auto id = chance(0.5) ? ref_.cas_of(k) : pick(0, 1000);
      const auto f = flags();
      const auto e = expiry();
      std::string v = value();
      expect_same(cache_.cas(k, f, e, to_buffer(v), id, now_),
                  ref_.cas(k, f, e, v, id, now_), op);
    } else if (verb < 90) {
      const bool up = chance(0.5);
      const std::uint64_t delta =
          chance(0.1) ? ~std::uint64_t{0} - pick(0, 5) : pick(0, 1000);
      auto a = up ? cache_.incr(k, delta, now_) : cache_.decr(k, delta, now_);
      auto b = ref_.arith(k, delta, up, now_);
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
      if (a) {
        ASSERT_EQ(*a, *b) << "op " << op;
      } else {
        ASSERT_EQ(a.error(), b.error()) << "op " << op;
      }
    } else {
      expect_same(cache_.del(k), ref_.del(k), op);
    }
  }

  void check_state(std::size_t op, bool slabs) {
    const CacheStats& a = cache_.stats();
    const CacheStats& b = ref_.stats();
    ASSERT_EQ(a.cmd_get, b.cmd_get) << "op " << op;
    ASSERT_EQ(a.cmd_set, b.cmd_set) << "op " << op;
    ASSERT_EQ(a.get_hits, b.get_hits) << "op " << op;
    ASSERT_EQ(a.get_misses, b.get_misses) << "op " << op;
    ASSERT_EQ(a.evictions, b.evictions) << "op " << op;
    ASSERT_EQ(a.expired_unfetched, b.expired_unfetched) << "op " << op;
    ASSERT_EQ(a.curr_items, b.curr_items) << "op " << op;
    ASSERT_EQ(a.bytes, b.bytes) << "op " << op;
    ASSERT_EQ(cache_.item_count(), ref_.item_count()) << "op " << op;
    peak_items_ = std::max(peak_items_, cache_.item_count());
    const SlabAllocator& sa = cache_.slabs();
    const SlabAllocator& sb = ref_.slabs();
    ASSERT_EQ(sa.pages_assigned(), sb.pages_assigned()) << "op " << op;
    for (std::uint32_t c = 0; slabs && c < sa.num_classes(); ++c) {
      ASSERT_EQ(sa.used_chunks(c), sb.used_chunks(c)) << "op " << op;
      ASSERT_EQ(sa.free_chunks(c), sb.free_chunks(c)) << "op " << op;
    }
    // The victims the reference chose are exactly the keys the engine lost:
    // each must now miss in both (a miss moves no LRU position).
    for (const auto& [v, cls] : ref_.take_victims()) {
      ASSERT_FALSE(cache_.get(v, now_).has_value())
          << "op " << op << " kept victim " << v;
      ASSERT_EQ(ref_.get(v, now_), nullptr);
      evicting_.insert(cls);
    }
  }

  ModelParams p_;
  std::mt19937_64 rng_;
  McCache cache_;
  RefCache ref_;
  SimTime now_ = 1;
  std::size_t peak_items_ = 0;
  std::set<std::uint32_t> evicting_;
};

TEST(McCacheModel, SmallMemoryEvictsAcrossClasses) {
  for (std::uint32_t seed = 1; seed <= 2; ++seed) {
    ModelRun run({.memory_limit = 6 * kMiB, .key_space = 40'000,
                  .ops = 60'000, .flushes = 0.00002, .large = 0.5,
                  .prefill = 40'000},
                 seed);
    run.run();
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    EXPECT_GT(run.stats().evictions, 1000u) << "seed " << seed;
    EXPECT_GE(run.classes_evicting(), 3u) << "seed " << seed;
    EXPECT_GT(run.stats().expired_unfetched, 0u) << "seed " << seed;
  }
}

TEST(McCacheModel, ExpiryHeavyChurn) {
  ModelRun run({.memory_limit = 3 * kMiB, .key_space = 500, .ops = 60'000,
                .expiring = 0.6, .flushes = 0.002},
               7);
  run.run();
  EXPECT_GT(run.stats().expired_unfetched, 300u);
}

// Few keys in a nearly empty index and constant eviction: the victim often
// sits inside the probe run of the key being stored.
TEST(McCacheModel, EvictionInsideProbeRuns) {
  ModelRun run({.memory_limit = 3 * kMiB, .key_space = 16, .ops = 12'000,
                .expiring = 0.05, .flushes = 0.001, .huge = 0.5},
               5);
  run.run();
  EXPECT_GT(run.stats().evictions, 500u);
}

TEST(McCacheModel, IndexGrowsPast64kKeys) {
  ModelRun run({.memory_limit = 64 * kMiB, .key_space = 100'000,
                .ops = 150'000, .expiring = 0.02, .flushes = 0,
                .large = 0.01, .prefill = 100'000},
               11);
  run.run();
  EXPECT_GT(run.peak_items(), 65'536u);
}

}  // namespace
}  // namespace imca::memcache
