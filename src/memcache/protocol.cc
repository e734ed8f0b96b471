#include "memcache/protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace imca::memcache {
namespace {

constexpr std::string_view kCrlf = "\r\n";

const char* verb_name(StoreVerb v) {
  switch (v) {
    case StoreVerb::kSet: return "set";
    case StoreVerb::kAdd: return "add";
    case StoreVerb::kReplace: return "replace";
    case StoreVerb::kAppend: return "append";
    case StoreVerb::kPrepend: return "prepend";
  }
  return "?";
}

// Cursor over the segment chain of a message; reads CRLF-terminated lines
// and exact-size binary blocks in one forward pass. The cursor is a (view,
// offset) pair, so no read rescans the chain from its start. Data blocks
// come back as zero-copy slices of the message's own segments; header lines
// are borrowed in place when they fit one segment and staged through a small
// scratch string when they straddle a boundary.
class Scanner {
 public:
  explicit Scanner(const Buffer& buf) : views_(buf.views()), left_(buf.size()) {
    advance(0);
  }

  // Next line without its CRLF; kProto if no terminator remains. The view is
  // valid until the next line() call.
  Expected<std::string_view> line() {
    std::size_t len = 0;  // line bytes in the views before view `vi`
    for (std::size_t vi = vi_, from = vo_; vi < views_.size();
         ++vi, from = 0) {
      const auto v = views_[vi].bytes();
      const auto* base = reinterpret_cast<const char*>(v.data());
      for (std::size_t at = from; at < v.size();) {
        const auto* cr = static_cast<const char*>(
            std::memchr(base + at, '\r', v.size() - at));
        if (cr == nullptr) break;
        const auto pos = static_cast<std::size_t>(cr - base);
        if (pos + 1 < v.size() ? base[pos + 1] == '\n' : lf_starts(vi + 1)) {
          return take_line(len + pos - from);
        }
        at = pos + 1;
      }
      len += v.size() - from;
    }
    return Errc::kProto;
  }

  // Exactly `n` bytes followed by CRLF (a data block).
  Expected<Buffer> block(std::size_t n) {
    // Written so that no `n`, however large, can wrap the bound.
    if (left_ < kCrlf.size() || n > left_ - kCrlf.size()) return Errc::kProto;
    const std::size_t vi = vi_, vo = vo_;
    advance(n);
    if (next_byte() != '\r' || next_byte() != '\n') return Errc::kProto;
    Buffer out;
    for (std::size_t i = vi, off = vo, need = n; need > 0; ++i, off = 0) {
      BufView part = views_[i].sub(off, need);
      need -= part.size();
      out.append(std::move(part));
    }
    ++buffer_stats().view_slices;
    return out;
  }

 private:
  // True if the first byte after view `vi` (skipping empty views) is LF.
  bool lf_starts(std::size_t vi) const {
    for (; vi < views_.size(); ++vi) {
      if (!views_[vi].empty()) return views_[vi].bytes()[0] == std::byte{'\n'};
    }
    return false;
  }

  // The `len` bytes at the cursor as a line; steps past them and the CRLF.
  std::string_view take_line(std::size_t len) {
    const auto v = views_[vi_].bytes();
    std::string_view out;
    if (vo_ + len <= v.size()) {
      out = {reinterpret_cast<const char*>(v.data()) + vo_, len};
    } else {
      scratch_.resize(len);
      for (std::size_t vi = vi_, off = vo_, done = 0; done < len;
           ++vi, off = 0) {
        const auto src = views_[vi].bytes().subspan(off);
        const std::size_t n = std::min(len - done, src.size());
        std::memcpy(scratch_.data() + done, src.data(), n);
        done += n;
      }
      buffer_stats().bytes_copied += len;
      out = scratch_;
    }
    advance(len + kCrlf.size());
    return out;
  }

  // The byte at the cursor, stepping past it; the caller has checked that
  // one remains.
  char next_byte() {
    const char c = static_cast<char>(views_[vi_].bytes()[vo_]);
    advance(1);
    return c;
  }

  // Moves the cursor `n` (<= left_) bytes on, normalized so that vo_ lies
  // inside views_[vi_] unless the message is used up.
  void advance(std::size_t n) {
    left_ -= n;
    n += vo_;
    while (vi_ < views_.size() && n >= views_[vi_].size()) {
      n -= views_[vi_].size();
      ++vi_;
    }
    vo_ = n;
  }

  const std::vector<BufView>& views_;
  std::size_t vi_ = 0;  // cursor: view index
  std::size_t vo_ = 0;  //         offset within views_[vi_]
  std::size_t left_;    // bytes from the cursor to the end
  std::string scratch_;
};

// Space-separated tokens of a line, read in place.
class Tokens {
 public:
  explicit Tokens(std::string_view s) : rest_(s) {}

  // Next token; empty once the line is used up.
  std::string_view next() {
    const auto b = rest_.find_first_not_of(' ');
    if (b == std::string_view::npos) return rest_ = {};
    rest_.remove_prefix(b);
    const auto tok = rest_.substr(0, rest_.find(' '));
    rest_.remove_prefix(tok.size());
    return tok;
  }

 private:
  std::string_view rest_;
};

// The tokens after a line's first word, in a fixed array. Every line but a
// get carries at most five; size() is kMax + 1 when there are more.
class Args {
 public:
  static constexpr std::size_t kMax = 5;

  explicit Args(Tokens& words) {
    while (n_ < kMax && !(tok_[n_] = words.next()).empty()) ++n_;
    if (n_ == kMax && !words.next().empty()) ++n_;
  }

  std::size_t size() const noexcept { return n_; }
  std::string_view operator[](std::size_t i) const { return tok_[i]; }

 private:
  std::array<std::string_view, kMax> tok_{};
  std::size_t n_ = 0;
};

template <typename T>
Expected<T> parse_num(std::string_view s) {
  T v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return Errc::kProto;
  return v;
}

void put_line(ByteBuf& out, std::string_view s) {
  out.put_raw(s);
  out.put_raw(kCrlf);
}

ByteBuf encode_multikey(std::string_view verb,
                        std::span<const std::string> keys) {
  ByteBuf out;
  out.put_raw(verb);
  for (const auto& k : keys) {
    out.put_raw(" ");
    out.put_raw(k);
  }
  out.put_raw(kCrlf);
  return out;
}

}  // namespace

ByteBuf encode_get(std::span<const std::string> keys) {
  return encode_multikey("get", keys);
}

ByteBuf encode_gets(std::span<const std::string> keys) {
  return encode_multikey("gets", keys);
}

ByteBuf encode_store(StoreVerb verb, std::string_view key, std::uint32_t flags,
                     std::uint32_t exptime_s, const Buffer& data) {
  ByteBuf out;
  char head[320];
  std::snprintf(head, sizeof head, "%s %.*s %u %u %zu", verb_name(verb),
                static_cast<int>(key.size()), key.data(), flags, exptime_s,
                data.size());
  put_line(out, head);
  out.put_buffer(data);
  out.put_raw(kCrlf);
  return out;
}

ByteBuf encode_cas(std::string_view key, std::uint32_t flags,
                   std::uint32_t exptime_s, const Buffer& data,
                   std::uint64_t cas_id) {
  ByteBuf out;
  char head[360];
  std::snprintf(head, sizeof head, "cas %.*s %u %u %zu %llu",
                static_cast<int>(key.size()), key.data(), flags, exptime_s,
                data.size(), static_cast<unsigned long long>(cas_id));
  put_line(out, head);
  out.put_buffer(data);
  out.put_raw(kCrlf);
  return out;
}

ByteBuf encode_incr(std::string_view key, std::uint64_t delta) {
  ByteBuf out;
  put_line(out, "incr " + std::string(key) + " " + std::to_string(delta));
  return out;
}

ByteBuf encode_decr(std::string_view key, std::uint64_t delta) {
  ByteBuf out;
  put_line(out, "decr " + std::string(key) + " " + std::to_string(delta));
  return out;
}

ByteBuf encode_delete(std::string_view key) {
  ByteBuf out;
  put_line(out, std::string("delete ") + std::string(key));
  return out;
}

ByteBuf encode_flush_all() {
  ByteBuf out;
  put_line(out, "flush_all");
  return out;
}

ByteBuf encode_flush_clean() {
  ByteBuf out;
  put_line(out, "flush_all clean");
  return out;
}

ByteBuf encode_stats() {
  ByteBuf out;
  put_line(out, "stats");
  return out;
}

Expected<GetResult> parse_get_response(ByteBuf& in) {
  Scanner sc(in.buffer());
  GetResult result;
  while (true) {
    auto line = sc.line();
    if (!line) return line.error();
    if (*line == "END") return result;
    Tokens words(*line);
    const bool is_value = words.next() == "VALUE";
    const Args tok(words);  // key flags bytes [cas]
    if (!is_value || (tok.size() != 3 && tok.size() != 4)) {
      return Errc::kProto;
    }
    auto flags = parse_num<std::uint32_t>(tok[1]);
    auto nbytes = parse_num<std::size_t>(tok[2]);
    if (!flags || !nbytes) return Errc::kProto;
    Value v;
    if (tok.size() == 4) {  // gets carries the cas id
      auto cas_id = parse_num<std::uint64_t>(tok[3]);
      if (!cas_id) return Errc::kProto;
      v.cas = *cas_id;
    }
    auto data = sc.block(*nbytes);
    if (!data) return data.error();
    v.flags = *flags;
    v.data = std::move(*data);
    result.emplace(std::string(tok[0]), std::move(v));
  }
}

Expected<StoreReply> parse_store_response(ByteBuf& in) {
  Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "STORED") return StoreReply::kStored;
  if (*line == "NOT_STORED") return StoreReply::kNotStored;
  if (line->starts_with("SERVER_ERROR")) return StoreReply::kServerError;
  return Errc::kProto;
}

Expected<CasReply> parse_cas_response(ByteBuf& in) {
  Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "STORED") return CasReply::kStored;
  if (*line == "EXISTS") return CasReply::kExists;
  if (*line == "NOT_FOUND") return CasReply::kNotFound;
  return Errc::kProto;
}

Expected<std::uint64_t> parse_arith_response(ByteBuf& in) {
  Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "NOT_FOUND") return Errc::kNoEnt;
  if (line->starts_with("CLIENT_ERROR")) return Errc::kInval;
  return parse_num<std::uint64_t>(*line);
}

Expected<DeleteReply> parse_delete_response(ByteBuf& in) {
  Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "DELETED") return DeleteReply::kDeleted;
  if (*line == "NOT_FOUND") return DeleteReply::kNotFound;
  return Errc::kProto;
}

Expected<std::map<std::string, std::string>> parse_stats_response(
    ByteBuf& in) {
  Scanner sc(in.buffer());
  std::map<std::string, std::string> out;
  while (true) {
    auto line = sc.line();
    if (!line) return line.error();
    if (*line == "END") return out;
    Tokens words(*line);
    const bool is_stat = words.next() == "STAT";
    const Args tok(words);  // name value
    if (!is_stat || tok.size() != 2) return Errc::kProto;
    out.emplace(std::string(tok[0]), std::string(tok[1]));
  }
}

namespace {

ByteBuf error_reply() {
  ByteBuf out;
  put_line(out, "ERROR");
  return out;
}

// `keys` holds the request's keys, unread; `looked_up` receives how many it
// names. The reply is "VALUE <key> <flags> <bytes>[ <cas>]\r\n", the data
// block and CRLF per hit, then "END\r\n". All of its text goes into one
// segment, viewed in between the items' own data segments.
ByteBuf do_get(McCache& cache, Tokens keys, SimTime now, bool with_cas,
               std::size_t& looked_up) {
  std::vector<std::byte> text;
  const auto put = [&text](std::string_view s) {
    const auto* b = reinterpret_cast<const std::byte*>(s.data());
    text.insert(text.end(), b, b + s.size());
  };
  const auto put_num = [&put](std::uint64_t v) {
    char digits[20];
    put({digits, static_cast<std::size_t>(
                     std::to_chars(digits, digits + sizeof digits, v).ptr -
                     digits)});
  };
  // Each hit's data, and where its text ends.
  std::vector<std::pair<std::size_t, Buffer>> hits;
  std::size_t n = 0;
  for (auto key = keys.next(); !key.empty(); key = keys.next(), ++n) {
    auto v = cache.get(key, now);
    if (!v) continue;  // miss: the key simply isn't echoed back
    if (!hits.empty()) put(kCrlf);
    put("VALUE ");
    put(key);
    put(" ");
    put_num(v->flags);
    put(" ");
    put_num(v->data.size());
    if (with_cas) {
      put(" ");
      put_num(v->cas);
    }
    put(kCrlf);
    hits.emplace_back(text.size(), std::move(v->data));
  }
  if (n == 0) return error_reply();
  looked_up = n;
  if (!hits.empty()) put(kCrlf);
  put("END\r\n");

  const Segment seg = Segment::take(std::move(text));
  Buffer out;
  std::size_t from = 0;
  for (auto& [end, data] : hits) {
    out.append(BufView(seg, from, end - from));
    out.append(std::move(data));
    from = end;
  }
  out.append(BufView(seg, from, seg.size() - from));
  return ByteBuf(std::move(out));
}

ByteBuf do_cas(McCache& cache, const Args& tok, Scanner& sc, SimTime now) {
  if (tok.size() != 5) return error_reply();
  auto flags = parse_num<std::uint32_t>(tok[1]);
  auto exptime = parse_num<std::uint32_t>(tok[2]);
  auto nbytes = parse_num<std::size_t>(tok[3]);
  auto cas_id = parse_num<std::uint64_t>(tok[4]);
  if (!flags || !exptime || !nbytes || !cas_id) return error_reply();
  auto data = sc.block(*nbytes);
  if (!data) return error_reply();
  const SimTime expire_at =
      *exptime == 0 ? 0 : now + static_cast<SimTime>(*exptime) * kSecond;
  auto r = cache.cas(tok[0], *flags, expire_at, std::move(*data), *cas_id, now);
  ByteBuf out;
  if (r) {
    put_line(out, "STORED");
  } else if (r.error() == Errc::kBusy) {
    put_line(out, "EXISTS");
  } else if (r.error() == Errc::kNoEnt) {
    put_line(out, "NOT_FOUND");
  } else {
    put_line(out, "SERVER_ERROR out of memory storing object");
  }
  return out;
}

ByteBuf do_arith(McCache& cache, const Args& tok, bool up, SimTime now) {
  if (tok.size() != 2) return error_reply();
  auto delta = parse_num<std::uint64_t>(tok[1]);
  if (!delta) return error_reply();
  auto r = up ? cache.incr(tok[0], *delta, now)
              : cache.decr(tok[0], *delta, now);
  ByteBuf out;
  if (r) {
    put_line(out, std::to_string(*r));
  } else if (r.error() == Errc::kNoEnt) {
    put_line(out, "NOT_FOUND");
  } else {
    put_line(out,
             "CLIENT_ERROR cannot increment or decrement non-numeric value");
  }
  return out;
}

ByteBuf do_store(McCache& cache, StoreVerb verb, const Args& tok, Scanner& sc,
                 SimTime now) {
  if (tok.size() != 4) return error_reply();
  auto flags = parse_num<std::uint32_t>(tok[1]);
  auto exptime = parse_num<std::uint32_t>(tok[2]);
  auto nbytes = parse_num<std::size_t>(tok[3]);
  if (!flags || !exptime || !nbytes) return error_reply();
  auto data = sc.block(*nbytes);
  if (!data) return error_reply();
  const SimTime expire_at =
      *exptime == 0 ? 0 : now + static_cast<SimTime>(*exptime) * kSecond;

  Expected<void> r = Errc::kInval;
  switch (verb) {
    case StoreVerb::kSet:
      r = cache.set(tok[0], *flags, expire_at, std::move(*data), now);
      break;
    case StoreVerb::kAdd:
      r = cache.add(tok[0], *flags, expire_at, std::move(*data), now);
      break;
    case StoreVerb::kReplace:
      r = cache.replace(tok[0], *flags, expire_at, std::move(*data), now);
      break;
    case StoreVerb::kAppend:
      r = cache.append(tok[0], std::move(*data), now);
      break;
    case StoreVerb::kPrepend:
      r = cache.prepend(tok[0], std::move(*data), now);
      break;
  }

  ByteBuf out;
  if (r) {
    put_line(out, "STORED");
  } else if (r.error() == Errc::kNotStored) {
    put_line(out, "NOT_STORED");
  } else if (r.error() == Errc::kTooBig) {
    put_line(out, "SERVER_ERROR object too large for cache");
  } else if (r.error() == Errc::kKeyTooLong) {
    put_line(out, "CLIENT_ERROR bad command line format");
  } else {
    put_line(out, "SERVER_ERROR out of memory storing object");
  }
  return out;
}

ByteBuf do_delete(McCache& cache, const Args& tok) {
  if (tok.size() != 1) return error_reply();
  ByteBuf out;
  put_line(out, cache.del(tok[0]) ? "DELETED" : "NOT_FOUND");
  return out;
}

ByteBuf do_stats(const McCache& cache) {
  const CacheStats& s = cache.stats();
  ByteBuf out;
  char line[96];
  const auto stat = [&](const char* name, std::uint64_t v) {
    std::snprintf(line, sizeof line, "STAT %s %" PRIu64, name, v);
    put_line(out, line);
  };
  for (const auto& f : CacheStats::fields()) stat(f.name, s.*f.member);
  stat("limit_maxbytes", cache.slabs().memory_limit());
  put_line(out, "END");
  return out;
}

}  // namespace

ByteBuf handle_request(McCache& cache, ByteBuf request, SimTime now,
                       std::size_t* keys_touched) {
  std::size_t keys = 1;
  if (keys_touched == nullptr) keys_touched = &keys;
  *keys_touched = 1;

  Scanner sc(request.buffer());
  auto first = sc.line();
  if (!first) return error_reply();
  Tokens words(*first);
  const std::string_view cmd = words.next();
  if (cmd.empty()) return error_reply();

  if (cmd == "get" || cmd == "gets") {
    return do_get(cache, words, now, /*with_cas=*/cmd == "gets",
                  *keys_touched);
  }
  const Args tok(words);
  if (cmd == "cas") return do_cas(cache, tok, sc, now);
  if (cmd == "incr") return do_arith(cache, tok, /*up=*/true, now);
  if (cmd == "decr") return do_arith(cache, tok, /*up=*/false, now);
  if (cmd == "set") return do_store(cache, StoreVerb::kSet, tok, sc, now);
  if (cmd == "add") return do_store(cache, StoreVerb::kAdd, tok, sc, now);
  if (cmd == "replace")
    return do_store(cache, StoreVerb::kReplace, tok, sc, now);
  if (cmd == "append")
    return do_store(cache, StoreVerb::kAppend, tok, sc, now);
  if (cmd == "prepend")
    return do_store(cache, StoreVerb::kPrepend, tok, sc, now);
  if (cmd == "delete") return do_delete(cache, tok);
  if (cmd == "stats") return do_stats(cache);
  if (cmd == "flush_all") {
    // "flush_all clean" spares items flagged write-back dirty: the rejoin
    // purge must never destroy the only surviving replica of acked bytes.
    if (tok.size() >= 1 && tok[0] == "clean") {
      cache.flush_clean();
    } else {
      cache.flush_all();
    }
    ByteBuf out;
    put_line(out, "OK");
    return out;
  }
  return error_reply();
}

}  // namespace imca::memcache
