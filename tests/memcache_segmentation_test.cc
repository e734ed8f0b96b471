// Segmentation invariance of the memcached text protocol: a message means
// the same thing however its bytes are split into segments. Every request
// and reply of the Protocol/ProtocolExt cases, plus a 128-key multi-get, is
// re-chunked into 1-byte segments, at every CR (so each CRLF straddles a
// boundary) and at seeded random cut points, and must yield the same reply
// bytes from the daemon and the same parse results in the client as the
// contiguous form.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/bytebuf.h"
#include "memcache/cache.h"
#include "memcache/protocol.h"

namespace imca::memcache {
namespace {

// Copies `msg` into one fresh segment per piece, cutting before each offset
// in `cuts` (ascending).
Buffer rechunk(const Buffer& msg, const std::vector<std::size_t>& cuts) {
  const std::vector<std::byte> flat = msg.gather();
  const std::span<const std::byte> all(flat);
  Buffer out;
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    if (cut <= from || cut >= flat.size()) continue;
    out.append(BufView(Segment::copy_of(all.subspan(from, cut - from))));
    from = cut;
  }
  out.append(BufView(Segment::copy_of(all.subspan(from))));
  return out;
}

// The segmentations every message is checked under.
std::vector<Buffer> segmentations(const Buffer& msg, std::uint32_t seed) {
  const std::size_t n = msg.size();
  std::vector<Buffer> out;
  if (n <= 16 * 1024) {  // 1-byte segments
    std::vector<std::size_t> every(n);
    for (std::size_t i = 0; i < n; ++i) every[i] = i;
    out.push_back(rechunk(msg, every));
  }
  // A cut after every CR, so each CR and its LF land in different segments.
  const std::string text = msg.gather_string();
  std::vector<std::size_t> after_cr;
  for (std::size_t i = 0; i < n; ++i) {
    if (text[i] == '\r') after_cr.push_back(i + 1);
  }
  out.push_back(rechunk(msg, after_cr));
  // Seeded random cut points.
  std::mt19937 rng(seed);
  for (int round = 0; round < 4 && n > 1; ++round) {
    std::vector<std::size_t> cuts(1 + rng() % 24);
    for (auto& c : cuts) c = 1 + rng() % (n - 1);
    std::sort(cuts.begin(), cuts.end());
    out.push_back(rechunk(msg, cuts));
  }
  return out;
}

void expect_same_get(const Expected<GetResult>& a, const Expected<GetResult>& b,
                     const std::string& what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (!a) {
    EXPECT_EQ(a.error(), b.error()) << what;
    return;
  }
  ASSERT_EQ(a->size(), b->size()) << what;
  for (const auto& [key, v] : *a) {
    ASSERT_TRUE(b->contains(key)) << what << " key " << key;
    const Value& w = b->at(key);
    EXPECT_EQ(v.flags, w.flags) << what;
    EXPECT_EQ(v.cas, w.cas) << what;
    EXPECT_TRUE(v.data.content_equals(w.data)) << what << " key " << key;
  }
}

template <typename T>
void expect_same(const Expected<T>& a, const Expected<T>& b,
                 const std::string& what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (a) {
    EXPECT_EQ(*a, *b) << what;
  } else {
    EXPECT_EQ(a.error(), b.error()) << what;
  }
}

// Every client-side parser must read a reply the same in both forms.
void expect_same_parses(const Buffer& contiguous, const Buffer& split,
                        const std::string& what) {
  const auto parse_both = [&](auto parse) {
    ByteBuf a(contiguous), b(split);
    return std::make_pair(parse(a), parse(b));
  };
  {
    auto [a, b] = parse_both(parse_get_response);
    expect_same_get(a, b, what + " parse_get_response");
  }
  {
    auto [a, b] = parse_both(parse_store_response);
    expect_same(a, b, what + " parse_store_response");
  }
  {
    auto [a, b] = parse_both(parse_cas_response);
    expect_same(a, b, what + " parse_cas_response");
  }
  {
    auto [a, b] = parse_both(parse_arith_response);
    expect_same(a, b, what + " parse_arith_response");
  }
  {
    auto [a, b] = parse_both(parse_delete_response);
    expect_same(a, b, what + " parse_delete_response");
  }
  {
    auto [a, b] = parse_both(parse_stats_response);
    expect_same(a, b, what + " parse_stats_response");
  }
}

// Drives one daemon with contiguous requests and, in lockstep, one daemon
// per segmentation of each request; every reply must match byte for byte,
// and every reply parses the same segmented as contiguous.
class Lockstep {
 public:
  // Sends `req`; returns the contiguous daemon's reply.
  ByteBuf send(const ByteBuf& req) {
    const Buffer msg = req.buffer();
    const std::string what = "request " + std::to_string(sent_) + " \"" +
                             msg.gather_string().substr(0, 60) + "\"";
    const auto forms = segmentations(msg, 1000 + sent_++);
    // A message with fewer forms (too large for 1-byte segments, or too
    // short to cut) leaves the first twins without one; they replay the
    // contiguous request to stay in lockstep.
    const std::size_t offset = twins_.size() - forms.size();
    ByteBuf reply = handle_request(main_, ByteBuf(msg), now_);
    const Buffer& want = reply.buffer();
    for (std::size_t i = 0; i < twins_.size(); ++i) {
      const Buffer& form = i < offset ? msg : forms[i - offset];
      ByteBuf got = handle_request(*twins_[i], ByteBuf(form), now_);
      EXPECT_TRUE(got.buffer().content_equals(want))
          << what << " form " << i << ": " << got.buffer().gather_string()
          << " vs " << want.gather_string();
    }
    for (const Buffer& form : segmentations(want, 5000 + sent_)) {
      expect_same_parses(want, form, what + " reply");
    }
    ++now_;
    return reply;
  }

  ByteBuf send_raw(std::string_view raw) {
    ByteBuf req;
    req.put_raw(raw);
    return send(req);
  }

  void sleep(SimDuration d) { now_ += d; }
  McCache& cache() { return main_; }

 private:
  static constexpr std::uint64_t kLimit = 64 * kMiB;
  // 1-byte, after-CR and four random segmentations.
  static constexpr std::size_t kForms = 6;

  McCache main_{kLimit};
  std::vector<std::unique_ptr<McCache>> twins_ = [] {
    std::vector<std::unique_ptr<McCache>> v;
    for (std::size_t i = 0; i < kForms; ++i) {
      v.push_back(std::make_unique<McCache>(kLimit));
    }
    return v;
  }();
  std::uint32_t sent_ = 0;
  SimTime now_ = 0;
};

Buffer bytes(std::string_view s) { return to_buffer(s); }

TEST(ProtocolSegmentation, ProtocolCases) {
  Lockstep w;
  // SetThenGetThroughWireFormat, MissOmitsKeyFromResponse.
  w.send(encode_store(StoreVerb::kSet, "key1", 5, 0, bytes("hello")));
  const std::string key1[] = {"key1"};
  w.send(encode_get(key1));
  const std::string nope[] = {"nope"};
  w.send(encode_get(nope));
  // MultiGetMixedHitMiss.
  w.send(encode_store(StoreVerb::kSet, "a", 0, 0, bytes("1")));
  w.send(encode_store(StoreVerb::kSet, "c", 0, 0, bytes("3")));
  const std::string abc[] = {"a", "b", "c"};
  w.send(encode_get(abc));
  // BinarySafeValues: CRLF, "END" and NULs inside a data block.
  std::vector<std::byte> raw = to_bytes("a\r\nEND\r\n\0b");
  raw.push_back(std::byte{0});
  w.send(encode_store(StoreVerb::kSet, "k", 0, 0, Buffer::take(std::move(raw))));
  const std::string k[] = {"k"};
  w.send(encode_get(k));
  // DeleteReplies.
  w.send(encode_delete("k"));
  w.send(encode_delete("k"));
  // OversizeItemIsServerError.
  w.send(encode_store(StoreVerb::kSet, "big", 0, 0,
                      Buffer::zeros(kMaxItemTotal)));
  // add/replace/append/prepend round trips.
  w.send(encode_store(StoreVerb::kAdd, "a", 0, 0, bytes("x")));
  w.send(encode_store(StoreVerb::kAdd, "n", 0, 0, bytes("new")));
  w.send(encode_store(StoreVerb::kReplace, "zz", 0, 0, bytes("x")));
  w.send(encode_store(StoreVerb::kAppend, "n", 0, 0, bytes("-tail")));
  w.send(encode_store(StoreVerb::kPrepend, "n", 0, 0, bytes("head-")));
  const std::string n[] = {"n", "a"};
  w.send(encode_get(n));
  // StatsReportCounters.
  w.send(encode_stats());
  // MalformedInputYieldsError.
  for (const std::string_view bad :
       {"", "bogus\r\n", "get\r\n", "set k 0 0\r\n", "set k 0 0 5\r\nab\r\n",
        "set k 0 0 x\r\nabcde\r\n", "delete\r\n", "   \r\n",
        "set k 0 0 3\r\nabcXY", "get a\r"}) {
    EXPECT_TRUE(to_string(w.send_raw(bad).buffer()).starts_with("ERROR"))
        << bad;
  }
  // Extra spaces between tokens are skipped.
  w.send_raw("set  sp  1 0  2\r\nok\r\n");
  w.send_raw("get   sp    a  \r\n");
  // FlushAllClears, and the clean flush that spares dirty items.
  w.send(encode_store(StoreVerb::kSet, "dirty", kWbDirtyFlag, 0, bytes("d")));
  w.send(encode_flush_clean());
  const std::string dirty[] = {"dirty", "a"};
  w.send(encode_get(dirty));
  EXPECT_EQ(to_string(w.send(encode_flush_all()).buffer()), "OK\r\n");
  EXPECT_EQ(w.cache().item_count(), 0u);
}

TEST(ProtocolSegmentation, ProtocolExtCases) {
  Lockstep w;
  // GetsCarriesCasId, CasRoundTrip.
  w.send(encode_store(StoreVerb::kSet, "k", 7, 0, bytes("v")));
  const std::string k[] = {"k"};
  ByteBuf gets = w.send(encode_gets(k));
  const auto id = parse_get_response(gets).value().at("k").cas;
  w.send(encode_get(k));
  w.send(encode_cas("k", 0, 0, bytes("b"), id));
  w.send(encode_cas("k", 0, 0, bytes("c"), id));
  w.send(encode_cas("nope", 0, 0, bytes("x"), 1));
  // IncrDecrRoundTrip.
  w.send(encode_store(StoreVerb::kSet, "ctr", 0, 0, bytes("10")));
  w.send(encode_incr("ctr", 5));
  w.send(encode_decr("ctr", 20));
  w.send(encode_incr("ghost", 1));
  w.send(encode_store(StoreVerb::kSet, "s", 0, 0, bytes("x")));
  w.send(encode_incr("s", 1));
  // MalformedExtCommandsError.
  for (const std::string_view bad :
       {"cas k 0 0 1\r\nx\r\n", "cas k 0 0 1 abc\r\nx\r\n", "incr k\r\n",
        "decr k 1 2\r\n", "incr k x\r\n"}) {
    EXPECT_TRUE(to_string(w.send_raw(bad).buffer()).starts_with("ERROR"))
        << bad;
  }
  // Expiry: an item set with a 1 s exptime is gone a simulated second on.
  w.send_raw("set brief 0 1 3\r\nabc\r\n");
  const std::string brief[] = {"brief", "k"};
  w.send(encode_gets(brief));
  w.sleep(kSecond);
  w.send(encode_gets(brief));
  EXPECT_EQ(w.cache().stats().expired_unfetched, 1u);
}

TEST(ProtocolSegmentation, MultiGet128Keys) {
  Lockstep w;
  std::vector<std::string> keys;
  std::mt19937 rng(128);
  std::size_t stored = 0;
  for (std::uint32_t i = 0; i < 128; ++i) {
    keys.push_back("blk:/data/file" + std::to_string(i % 9) + ":" +
                   std::to_string(i));
    if (i % 5 == 3) continue;  // every fifth key misses
    // Values from empty to a few KiB, some carrying CRLF; multi-segment
    // values exercise blocks that already span views.
    std::string v(rng() % 3000, static_cast<char>('a' + i % 26));
    if (v.size() > 4) v.replace(v.size() / 2, 2, "\r\n");
    Buffer data = to_buffer(v);
    if (i % 4 == 0) data.append(to_buffer("+second segment"));
    w.send(encode_store(StoreVerb::kSet, keys.back(), i, 0, data));
    ++stored;
  }
  ByteBuf reply = w.send(encode_get(keys));
  const GetResult got = parse_get_response(reply).value();
  EXPECT_EQ(got.size(), stored);
  w.send(encode_gets(keys));
}

TEST(ProtocolSegmentation, OverflowingLengthsStayErrors) {
  Lockstep w;
  for (const std::string_view bad :
       {"set k 0 0 18446744073709551614\r\nabc\r\n",
        "set k 0 0 18446744073709551615\r\nabc\r\n",
        "cas k 0 0 18446744073709551614 1\r\nabc\r\n"}) {
    EXPECT_EQ(to_string(w.send_raw(bad).buffer()), "ERROR\r\n") << bad;
  }
  const std::string k[] = {"k"};
  EXPECT_EQ(to_string(w.send(encode_get(k)).buffer()), "END\r\n");
}

}  // namespace
}  // namespace imca::memcache
