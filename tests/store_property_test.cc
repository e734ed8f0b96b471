// Property tests for the storage substrate:
//  * PageCache behaves exactly like a reference LRU over (file,page) keys
//    under random op sequences — trace-based, so a failure is shrunk to a
//    minimal op sequence (tests/harness/shrink.h) and printed with its seed;
//  * ObjectStore behaves exactly like flat per-file byte vectors under random
//    write/read/truncate/rename sequences, and a Buffer read earlier keeps
//    its bytes whatever the file does later (same shrink-and-print style);
//  * SlabAllocator accounting invariants hold under random alloc/free churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"
#include "harness/shrink.h"
#include "memcache/slab.h"
#include "store/object_store.h"
#include "store/page_cache.h"

namespace imca {
namespace {

// Minimal, obviously-correct LRU used as the oracle.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool contains(std::uint64_t key) const { return map_.contains(key); }

  void touch(std::uint64_t key) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (capacity_ == 0) return;
    while (map_.size() >= capacity_) {
      map_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    map_[key] = order_.begin();
  }

  void erase_if(const std::function<bool(std::uint64_t)>& pred) {
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(*it)) {
        map_.erase(*it);
        it = order_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::size_t size() const { return map_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
};

std::uint64_t key_of(std::uint64_t file, std::uint64_t page) {
  return file * 1000003 + page;
}

// --- trace-based PageCache-vs-LRU property ---
//
// Ops are plain data so a failing sequence can be shrunk: any subsequence of
// a trace is itself a valid trace (every op is self-contained).

struct LruOp {
  enum class Kind : std::uint8_t {
    kAccess,      // access one page: promotes into both cache and oracle
    kAccessRun,   // access an `n`-page run
    kCovered,     // covered() must agree and not perturb LRU order
    kInvalidate,  // drop a whole file
  };
  Kind kind = Kind::kAccess;
  std::uint64_t file = 0;
  std::uint64_t page = 0;
  std::uint64_t n = 1;
};

std::string format_lru_op(const LruOp& op) {
  switch (op.kind) {
    case LruOp::Kind::kAccess:
      return "A f" + std::to_string(op.file) + " p" + std::to_string(op.page);
    case LruOp::Kind::kAccessRun:
      return "R f" + std::to_string(op.file) + " p" +
             std::to_string(op.page) + " n" + std::to_string(op.n);
    case LruOp::Kind::kCovered:
      return "C f" + std::to_string(op.file) + " p" + std::to_string(op.page);
    case LruOp::Kind::kInvalidate:
      return "I f" + std::to_string(op.file);
  }
  return "?";
}

// Same op mix the pre-trace version of this test used.
std::vector<LruOp> generate_lru_ops(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  constexpr std::uint64_t kFiles = 4;
  constexpr std::uint64_t kPages = 24;
  std::vector<LruOp> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    LruOp op;
    op.file = rng.below(kFiles);
    op.page = rng.below(kPages);
    switch (rng.below(4)) {
      case 0:
        op.kind = LruOp::Kind::kAccess;
        break;
      case 1:
        op.kind = LruOp::Kind::kAccessRun;
        op.n = 1 + rng.below(4);
        break;
      case 2:
        op.kind = LruOp::Kind::kCovered;
        break;
      case 3:
        if (rng.below(8) != 0) {  // rare, like real unlinks
          op.kind = LruOp::Kind::kAccess;
        } else {
          op.kind = LruOp::Kind::kInvalidate;
        }
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

// Replay `trace` against a fresh cache + oracle pair; nullopt = all
// invariants held, otherwise the index and a description of the first
// divergence.
struct LruFailure {
  std::size_t op_index = 0;
  std::string detail;
};

std::optional<LruFailure> replay_lru(const std::vector<LruOp>& trace,
                                     std::size_t cap_pages) {
  constexpr std::uint64_t kPage = store::PageCache::kPageSize;
  store::PageCache cache(cap_pages * kPage);
  ReferenceLru oracle(cap_pages);

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const LruOp& op = trace[i];
    switch (op.kind) {
      case LruOp::Kind::kAccess: {
        const bool oracle_hit = oracle.contains(key_of(op.file, op.page));
        const auto missed = cache.access(op.file, op.page * kPage, kPage);
        if ((missed == 0) != oracle_hit) {
          return LruFailure{i, "access hit/miss disagrees with oracle"};
        }
        oracle.touch(key_of(op.file, op.page));
        break;
      }
      case LruOp::Kind::kAccessRun: {
        std::uint64_t expect_missing = 0;
        for (std::uint64_t p = op.page; p < op.page + op.n; ++p) {
          if (!oracle.contains(key_of(op.file, p))) ++expect_missing;
          oracle.touch(key_of(op.file, p));
        }
        const auto missed = cache.access(op.file, op.page * kPage,
                                         op.n * kPage);
        if (missed != expect_missing * kPage) {
          return LruFailure{i, "run missed " + std::to_string(missed) +
                                   " bytes, oracle expected " +
                                   std::to_string(expect_missing * kPage)};
        }
        break;
      }
      case LruOp::Kind::kCovered: {
        const bool covered = cache.covered(op.file, op.page * kPage, kPage);
        if (covered != oracle.contains(key_of(op.file, op.page))) {
          return LruFailure{i, "covered() disagrees with oracle"};
        }
        break;
      }
      case LruOp::Kind::kInvalidate: {
        cache.invalidate(op.file);
        oracle.erase_if(
            [&](std::uint64_t k) { return k / 1000003 == op.file; });
        break;
      }
    }
    if (cache.resident_pages() != oracle.size()) {
      return LruFailure{i, "resident_pages " +
                               std::to_string(cache.resident_pages()) +
                               " != oracle size " +
                               std::to_string(oracle.size())};
    }
    if (cache.resident_pages() > cap_pages) {
      return LruFailure{i, "capacity exceeded"};
    }
  }
  return std::nullopt;
}

class PageCacheVsLru : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PageCacheVsLru, RandomOpsMatchReferenceModel) {
  const std::size_t cap_pages = GetParam();
  const std::uint64_t seed = 0xCAFE + cap_pages;
  const auto trace = generate_lru_ops(seed, 4000);

  const auto failure = replay_lru(trace, cap_pages);
  if (!failure) return;

  // Shrink to a minimal failing subsequence and print a reproducible trace.
  const auto minimized =
      harness::shrink_trace(trace, [&](const std::vector<LruOp>& candidate) {
        return replay_lru(candidate, cap_pages).has_value();
      });
  std::string dump;
  for (std::size_t i = 0; i < minimized.size(); ++i) {
    dump += "  [" + std::to_string(i) + "] " + format_lru_op(minimized[i]) +
            "\n";
  }
  std::fprintf(stderr,
               "PageCacheVsLru FAILED: seed=%llu cap=%llu op %llu: %s\n"
               "minimized trace (%llu ops):\n%s",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(cap_pages),
               static_cast<unsigned long long>(failure->op_index),
               failure->detail.c_str(),
               static_cast<unsigned long long>(minimized.size()),
               dump.c_str());
  FAIL() << "op " << failure->op_index << ": " << failure->detail
         << " (seed " << seed << ", minimized to " << minimized.size()
         << " ops above)";
}

INSTANTIATE_TEST_SUITE_P(Capacities, PageCacheVsLru,
                         ::testing::Values(1, 4, 16, 64));

// --- trace-based ObjectStore-vs-flat-vector property ---
//
// Every op names its file, so any subsequence is a valid trace: a write to a
// missing file creates it first, and the other ops on a missing file must
// fail with kNoEnt in the store as they do in the reference.

struct StoreOp {
  enum class Kind : std::uint8_t { kWrite, kRead, kTruncate, kRename };
  Kind kind = Kind::kWrite;
  std::uint8_t file = 0;
  std::uint8_t to = 0;       // rename target
  std::uint64_t offset = 0;  // write/read offset, truncate size
  std::uint64_t len = 0;     // write/read length
  std::uint8_t fill = 0;     // first payload byte of a write
};

constexpr const char* kStorePaths[] = {"/a", "/b", "/c"};

std::string format_store_op(const StoreOp& op) {
  const std::string f = kStorePaths[op.file];
  switch (op.kind) {
    case StoreOp::Kind::kWrite:
      return "W " + f + " @" + std::to_string(op.offset) + " n" +
             std::to_string(op.len) + " fill" + std::to_string(op.fill);
    case StoreOp::Kind::kRead:
      return "R " + f + " @" + std::to_string(op.offset) + " n" +
             std::to_string(op.len);
    case StoreOp::Kind::kTruncate:
      return "T " + f + " " + std::to_string(op.offset);
    case StoreOp::Kind::kRename:
      return "M " + f + " -> " + kStorePaths[op.to];
  }
  return "?";
}

std::vector<StoreOp> generate_store_ops(std::uint64_t seed,
                                        std::size_t n_ops) {
  constexpr std::uint64_t kPage = store::PageCache::kPageSize;
  Rng rng(seed);
  std::vector<StoreOp> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    StoreOp op;
    op.file = static_cast<std::uint8_t>(rng.below(std::size(kStorePaths)));
    // Offsets near page boundaries half the time, anywhere otherwise.
    op.offset = rng.chance(0.5)
                    ? rng.below(6) * kPage + rng.below(9) - 4 + kPage
                    : rng.below(6 * kPage);
    op.len = rng.chance(0.2) ? rng.below(3 * kPage) : rng.below(300);
    op.fill = static_cast<std::uint8_t>(rng.below(256));
    const std::uint64_t pick = rng.below(10);
    if (pick < 4) {
      op.kind = StoreOp::Kind::kWrite;
    } else if (pick < 8) {
      op.kind = StoreOp::Kind::kRead;
    } else if (pick < 9) {
      op.kind = StoreOp::Kind::kTruncate;
    } else {
      op.kind = StoreOp::Kind::kRename;
      op.to = static_cast<std::uint8_t>(rng.below(std::size(kStorePaths)));
    }
    ops.push_back(op);
  }
  return ops;
}

// The bytes of a write: `len` bytes counting up from `fill`.
std::vector<std::byte> store_payload(const StoreOp& op) {
  std::vector<std::byte> out(op.len);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(op.fill + i);
  }
  return out;
}

struct StoreFailure {
  std::size_t op_index = 0;
  std::string detail;
};

std::optional<StoreFailure> replay_store(const std::vector<StoreOp>& trace) {
  store::ObjectStore os;
  std::map<std::string, std::vector<std::byte>> ref;
  // Buffers read earlier, with the bytes they must keep holding.
  std::vector<std::pair<Buffer, std::vector<std::byte>>> snapshots;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const StoreOp& op = trace[i];
    const std::string path = kStorePaths[op.file];
    auto fail = [&](const std::string& what) {
      return StoreFailure{i, format_store_op(op) + ": " + what};
    };
    const bool present = ref.contains(path);
    switch (op.kind) {
      case StoreOp::Kind::kWrite: {
        if (!present) {
          if (!os.create(path, i)) return fail("create failed");
          ref[path];
        }
        // Two views, so copies out of the payload cross a segment boundary.
        const std::vector<std::byte> bytes = store_payload(op);
        const std::size_t cut = bytes.size() / 3;
        Buffer payload = Buffer::copy_of(std::span(bytes).first(cut));
        payload.append(Buffer::copy_of(std::span(bytes).subspan(cut)));
        const auto size = os.write(path, op.offset, payload, i);
        std::vector<std::byte>& r = ref[path];
        if (op.offset + op.len > r.size()) r.resize(op.offset + op.len);
        std::copy(bytes.begin(), bytes.end(),
                  r.begin() + static_cast<std::ptrdiff_t>(op.offset));
        if (!size || *size != r.size()) return fail("wrong size returned");
        break;
      }
      case StoreOp::Kind::kRead: {
        const auto got = os.read(path, op.offset, op.len);
        if (!present) {
          if (got || got.error() != Errc::kNoEnt) return fail("expected ENOENT");
          break;
        }
        if (!got) return fail("read failed");
        const std::vector<std::byte>& r = ref[path];
        const std::size_t from = std::min<std::size_t>(op.offset, r.size());
        const std::size_t n = std::min<std::size_t>(op.len, r.size() - from);
        const std::vector<std::byte> want(
            r.begin() + static_cast<std::ptrdiff_t>(from),
            r.begin() + static_cast<std::ptrdiff_t>(from + n));
        if (!got->content_equals(want)) {
          return fail("read " + std::to_string(got->size()) +
                      " bytes that differ from the reference's " +
                      std::to_string(n));
        }
        if (snapshots.size() == 8) snapshots.erase(snapshots.begin());
        snapshots.emplace_back(*got, want);
        break;
      }
      case StoreOp::Kind::kTruncate: {
        const auto r = os.truncate(path, op.offset, i);
        if (!present) {
          if (r || r.error() != Errc::kNoEnt) return fail("expected ENOENT");
          break;
        }
        if (!r) return fail("truncate failed");
        ref[path].resize(op.offset);
        break;
      }
      case StoreOp::Kind::kRename: {
        const std::string to = kStorePaths[op.to];
        const auto r = os.rename(path, to, i);
        if (!present) {
          if (r || r.error() != Errc::kNoEnt) return fail("expected ENOENT");
          break;
        }
        if (!r) return fail("rename failed");
        if (to != path) {
          ref[to] = std::move(ref[path]);
          ref.erase(path);
        }
        break;
      }
    }
    std::uint64_t total = 0;
    for (const auto& [p, bytes] : ref) {
      const auto st = os.stat(p);
      if (!st || st->size != bytes.size()) return fail(p + " size differs");
      total += bytes.size();
    }
    if (os.file_count() != ref.size()) return fail("file count differs");
    if (os.total_bytes() != total) return fail("total_bytes differs");
    for (const auto& [buf, want] : snapshots) {
      if (!buf.content_equals(want)) return fail("an earlier read changed");
    }
  }
  return std::nullopt;
}

class StoreVsFlat : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreVsFlat, RandomOpsMatchReferenceModel) {
  const std::uint64_t seed = GetParam();
  const auto trace = generate_store_ops(seed, 3000);

  const auto failure = replay_store(trace);
  if (!failure) return;

  // Ops after the first divergence cannot matter; shrink the prefix down to
  // single ops.
  const std::vector<StoreOp> prefix(
      trace.begin(),
      trace.begin() + static_cast<std::ptrdiff_t>(failure->op_index + 1));
  const auto minimized = harness::shrink_trace(
      prefix,
      [](const std::vector<StoreOp>& candidate) {
        return replay_store(candidate).has_value();
      },
      /*max_rounds=*/16);
  std::string dump;
  for (std::size_t i = 0; i < minimized.size(); ++i) {
    dump += "  [" + std::to_string(i) + "] " +
            format_store_op(minimized[i]) + "\n";
  }
  std::fprintf(stderr,
               "StoreVsFlat FAILED: seed=%llu op %llu: %s\n"
               "minimized trace (%llu ops):\n%s",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(failure->op_index),
               failure->detail.c_str(),
               static_cast<unsigned long long>(minimized.size()),
               dump.c_str());
  FAIL() << "op " << failure->op_index << ": " << failure->detail
         << " (seed " << seed << ", minimized to " << minimized.size()
         << " ops above)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreVsFlat, ::testing::Values(1, 2, 3, 4));

TEST(SlabProperty, AccountingInvariantsUnderChurn) {
  memcache::SlabAllocator slabs(8 * kMiB);
  Rng rng(77);
  // used chunks we hold per class
  std::unordered_map<std::uint32_t, std::uint64_t> held;
  std::uint64_t total_held = 0;

  for (int step = 0; step < 20000; ++step) {
    if (rng.chance(0.6) || total_held == 0) {
      const std::uint64_t size = 64 + rng.below(200 * 1024);
      auto cls = slabs.class_for(size);
      ASSERT_TRUE(cls.has_value());
      ASSERT_GE(slabs.chunk_size(*cls), size);
      if (slabs.alloc(*cls)) {
        ++held[*cls];
        ++total_held;
      } else {
        // Full: committed memory must actually be at the limit.
        ASSERT_GT(slabs.committed() + kMiB, slabs.memory_limit());
      }
    } else {
      // Free a random held chunk.
      auto it = held.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(held.size())));
      slabs.free(it->first);
      --total_held;
      if (--it->second == 0) held.erase(it);
    }

    // Invariants: per-class used matches what we hold; committed pages never
    // exceed the memory limit; used+free chunks fit in committed pages.
    ASSERT_LE(slabs.committed(), slabs.memory_limit());
    std::uint64_t used_total = 0;
    for (std::uint32_t c = 0; c < slabs.num_classes(); ++c) {
      used_total += slabs.used_chunks(c);
      const auto chunk = slabs.chunk_size(c);
      ASSERT_LE((slabs.used_chunks(c) + slabs.free_chunks(c)) * chunk,
                slabs.committed());
    }
    ASSERT_EQ(used_total, total_held);
  }
}

}  // namespace
}  // namespace imca
