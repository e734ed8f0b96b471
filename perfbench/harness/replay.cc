#include "harness/replay.h"

#include <chrono>
#include <map>
#include <memory>

#include "common/bytebuf.h"
#include "gluster/protocol.h"
#include "imca/config.h"
#include "imca/keys.h"
#include "mcclient/selector.h"
#include "memcache/cache.h"
#include "memcache/protocol.h"
#include "store/object_store.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Replays use at most this many calls of the workload's op stream.
constexpr std::size_t kMaxOps = 50000;

std::vector<Op> op_stream(const Workload& w) {
  // Interleave the clients' streams round-robin, as the timed phase does.
  std::vector<Op> out;
  for (std::size_t k = 0; out.size() < kMaxOps; ++k) {
    bool any = false;
    for (const auto& stream : w.ops) {
      if (k >= stream.size()) continue;
      any = true;
      if (stream[k].kind != OpKind::kBarrier) out.push_back(stream[k]);
    }
    if (!any) break;
  }
  if (out.size() > kMaxOps) out.resize(kMaxOps);
  return out;
}

// Runs `pass` (which returns how many items it handled) until `seconds`
// passed and at least three passes ran; median ns per item.
template <typename Pass>
std::pair<double, std::uint64_t> time_passes(double seconds, Pass&& pass) {
  std::vector<double> per_item;
  std::uint64_t items = 0;
  const auto start = Clock::now();
  while (per_item.size() < 3 ||
         std::chrono::duration<double>(Clock::now() - start).count() < seconds) {
    const auto t0 = Clock::now();
    items = pass();
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    per_item.push_back(items ? ns / static_cast<double>(items) : 0.0);
  }
  return {median(per_item), items};
}

// The multi-get requests CMCache would send for one op, one per daemon.
struct KeyedRequest {
  std::size_t server = 0;
  std::vector<std::string> keys;
  std::vector<std::uint64_t> hints;  // block index; empty for stat keys
};

std::vector<KeyedRequest> requests_for(const Workload& w, const Op& op,
                                       const imca::mcclient::ServerSelector& sel) {
  const std::string& path = w.files[op.file].path;
  const std::size_t n = w.config.n_mcds;
  if (op.kind == OpKind::kStat) {
    std::string key = imca::core::stat_key(path);
    const std::size_t s = sel.pick(key, std::nullopt, n);
    return {{s, {std::move(key)}, {}}};
  }
  std::map<std::size_t, KeyedRequest> by_server;
  const std::uint64_t bs = w.config.imca.block_size;
  const std::uint64_t begin = op.chunk * w.io_bytes;
  for (std::uint64_t off = begin / bs * bs; off < begin + w.io_bytes; off += bs) {
    std::string key = imca::core::data_key(path, off);
    const std::uint64_t hint = off / bs;
    const std::size_t s = sel.pick(key, hint, n);
    auto& req = by_server[s];
    req.server = s;
    req.keys.push_back(std::move(key));
    req.hints.push_back(hint);
  }
  std::vector<KeyedRequest> out;
  for (auto& [s, req] : by_server) out.push_back(std::move(req));
  return out;
}

std::vector<Metric> memcache_and_mcclient(const Workload& w,
                                          const std::vector<Op>& ops,
                                          double seconds) {
  const auto sel = imca::core::make_selector(w.config.imca);
  const std::size_t n_mcds = std::max<std::size_t>(w.config.n_mcds, 1);
  std::vector<KeyedRequest> reqs;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kWrite) continue;  // writes get no keys
    for (auto& r : requests_for(w, op, *sel)) reqs.push_back(std::move(r));
  }
  // Every key is resident, as in a warm bank: stat items hold an encoded
  // Attr, data items one block. The caches are sized so nothing is evicted.
  std::uint64_t key_count = 0;
  for (const auto& r : reqs) key_count += r.keys.size();
  const std::uint64_t memory =
      64 * imca::kMiB + key_count * (w.config.imca.block_size + 512) * 2;
  std::vector<std::unique_ptr<imca::memcache::McCache>> caches;
  for (std::size_t i = 0; i < n_mcds; ++i) {
    caches.push_back(std::make_unique<imca::memcache::McCache>(memory));
  }
  const imca::Buffer attr = imca::Buffer::zeros(imca::store::Attr::kWireSize);
  const imca::Buffer block = imca::Buffer::zeros(w.config.imca.block_size);
  std::vector<imca::ByteBuf> wire;
  std::vector<imca::ByteBuf> replies;
  std::uint64_t keys = 0;
  for (const auto& r : reqs) {
    for (const auto& key : r.keys) {
      const bool is_stat = r.hints.empty();
      (void)imca::memcache::handle_request(
          *caches[r.server],
          imca::memcache::encode_store(imca::memcache::StoreVerb::kSet, key, 0,
                                       0, is_stat ? attr : block),
          0);
    }
    keys += r.keys.size();
    wire.push_back(imca::memcache::encode_get(r.keys));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    replies.push_back(imca::memcache::handle_request(*caches[reqs[i].server],
                                                     wire[i], 0));
  }

  std::vector<Metric> out;
  const auto [req_ns, n_req] = time_passes(seconds, [&] {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      auto reply = imca::memcache::handle_request(*caches[reqs[i].server], wire[i], 0);
      if (reply.size() == 0) return std::uint64_t{0};
    }
    return static_cast<std::uint64_t>(reqs.size());
  });
  out.push_back({"memcache.host_ns_per_request", req_ns, "ns", n_req,
                 "handle_request over the op stream's multi-gets"});

  const auto [key_ns, n_keys] = time_passes(seconds, [&] {
    std::uint64_t parsed = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto& r = reqs[i];
      for (std::size_t k = 0; k < r.keys.size(); ++k) {
        const std::optional<std::uint64_t> hint =
            r.hints.empty() ? std::nullopt : std::optional(r.hints[k]);
        parsed += sel->pick(r.keys[k], hint, n_mcds) == r.server;
      }
      auto request = imca::memcache::encode_get(r.keys);
      imca::ByteBuf in = replies[i];
      auto got = imca::memcache::parse_get_response(in);
      if (!got || got->size() != r.keys.size() || request.size() == 0) {
        return std::uint64_t{0};
      }
    }
    return parsed == keys ? keys : 0;
  });
  out.push_back({"mcclient.host_ns_per_key", key_ns, "ns", n_keys,
                 "selector pick + encode_get + parse_get_response"});
  return out;
}

Metric object_store(const Workload& w, const std::vector<Op>& ops,
                    double seconds) {
  imca::store::ObjectStore os;
  const imca::Buffer record = imca::Buffer::zeros(w.io_bytes);
  std::vector<std::uint64_t> extent(w.files.size(), 0);
  for (const Op& op : ops) {
    if (op.kind != OpKind::kStat) {
      extent[op.file] = std::max(extent[op.file], (op.chunk + 1) * w.io_bytes);
    }
  }
  for (std::size_t f = 0; f < w.files.size(); ++f) {
    (void)os.create(w.files[f].path, 0);
    const std::uint64_t size = std::max(extent[f], w.files[f].populate_bytes);
    if (size > 0) (void)os.write(w.files[f].path, 0, imca::Buffer::zeros(size), 0);
  }
  const auto [ns, n] = time_passes(seconds, [&] {
    std::uint64_t ok = 0;
    for (const Op& op : ops) {
      const std::string& path = w.files[op.file].path;
      const std::uint64_t off = op.chunk * w.io_bytes;
      if (op.kind == OpKind::kStat) ok += os.stat(path).has_value();
      if (op.kind == OpKind::kRead) ok += os.read(path, off, w.io_bytes).has_value();
      if (op.kind == OpKind::kWrite) ok += os.write(path, off, record, 1).has_value();
    }
    return ok == ops.size() ? ok : 0;
  });
  return {"store.object_store.host_ns_per_op", ns, "ns", n,
          "ObjectStore stat/read/write over the op stream"};
}

Metric protocol(const Workload& w, const std::vector<Op>& ops, double seconds) {
  using imca::gluster::FopReply;
  using imca::gluster::FopRequest;
  using imca::gluster::FopType;
  const imca::Buffer record = imca::Buffer::zeros(w.io_bytes);
  const auto [ns, n] = time_passes(seconds, [&] {
    std::uint64_t ok = 0;
    std::uint64_t seq = 0;
    for (const Op& op : ops) {
      FopRequest req;
      FopReply rep;
      req.path = w.files[op.file].path;
      req.client_id = 1;
      req.op_seq = ++seq;
      if (op.kind == OpKind::kStat) {
        req.type = FopType::kStat;
        rep.attr.size = w.files[op.file].populate_bytes;
      } else if (op.kind == OpKind::kRead) {
        req.type = FopType::kRead;
        req.offset = op.chunk * w.io_bytes;
        req.length = w.io_bytes;
        rep.data = record;
      } else {
        req.type = FopType::kWrite;
        req.offset = op.chunk * w.io_bytes;
        req.data = record;
        rep.count = w.io_bytes;
      }
      auto req_wire = req.encode();
      auto req_back = FopRequest::decode(req_wire);
      auto rep_wire = rep.encode();
      auto rep_back = FopReply::decode(rep_wire);
      ok += req_back.has_value() && rep_back.has_value() &&
            req_back->path == req.path;
    }
    return ok == ops.size() ? ok : 0;
  });
  return {"gluster.protocol.host_ns_per_fop", ns, "ns", n,
          "FopRequest + FopReply encode/decode over the op stream"};
}

}  // namespace

std::vector<Metric> run_replays(const Workload& w, double seconds_each) {
  const std::vector<Op> ops = op_stream(w);
  std::vector<Metric> out = memcache_and_mcclient(w, ops, seconds_each);
  out.push_back(object_store(w, ops, seconds_each));
  out.push_back(protocol(w, ops, seconds_each));
  return out;
}

}  // namespace perfbench
