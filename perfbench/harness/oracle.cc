#include "harness/oracle.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

namespace perfbench {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t path_tag(const std::string& path, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char ch : path) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return mix(h ^ seed);
}

std::uint64_t checksum(std::uint64_t tag, std::uint64_t offset,
                       std::uint64_t version) {
  return mix(tag ^ mix(offset ^ mix(version + 0x9e3779b97f4a7c15ULL)));
}

using Cell = std::array<std::uint64_t, 4>;

Cell load(const std::byte* p) {
  Cell c;
  std::memcpy(c.data(), p, kCellBytes);
  return c;
}

// Walks a segment chain one 32-byte cell at a time without going through
// the Buffer API (whose copy counters the benchmark reports).
template <typename Fn>
bool for_each_cell(const imca::Buffer& data, Fn&& fn) {
  std::byte stage[kCellBytes];
  std::size_t staged = 0;
  std::uint64_t cell = 0;
  for (const auto& view : data.views()) {
    std::span<const std::byte> b = view.bytes();
    while (!b.empty()) {
      if (staged == 0 && b.size() >= kCellBytes) {
        if (!fn(cell++, load(b.data()))) return false;
        b = b.subspan(kCellBytes);
        continue;
      }
      const std::size_t n = std::min(kCellBytes - staged, b.size());
      std::memcpy(stage + staged, b.data(), n);
      staged += n;
      b = b.subspan(n);
      if (staged == kCellBytes) {
        staged = 0;
        if (!fn(cell++, load(stage))) return false;
      }
    }
  }
  return staged == 0;
}

}  // namespace

Oracle::Oracle(const Workload& w) : seed_(w.seed), io_bytes_(w.io_bytes) {
  const std::size_t n = w.files.size();
  std::vector<std::size_t> chunks(n, 0);
  for (std::size_t f = 0; f < n; ++f) {
    tags_.push_back(path_tag(w.files[f].path, seed_));
    if (io_bytes_ > 0) {
      chunks[f] = (w.files[f].populate_bytes + io_bytes_ - 1) / io_bytes_;
    }
  }
  for (const auto& stream : w.ops) {
    for (const auto& op : stream) {
      if (op.kind == OpKind::kRead || op.kind == OpKind::kWrite) {
        chunks[op.file] = std::max<std::size_t>(chunks[op.file], op.chunk + 1u);
      }
    }
  }
  std::size_t total = 0;
  for (std::size_t f = 0; f < n; ++f) {
    first_chunk_.push_back(total);
    total += chunks[f];
  }
  chunks_.resize(total);
  size_committed_.assign(n, 0);
  size_issued_.assign(n, 0);
}

std::size_t Oracle::index(std::uint32_t file, std::uint32_t chunk) const {
  return first_chunk_[file] + chunk;
}

imca::Buffer Oracle::content(std::uint32_t file, std::uint64_t offset,
                             std::uint64_t len, std::uint32_t version) const {
  std::vector<std::byte> out(len);
  const std::uint64_t tag = tags_[file];
  for (std::uint64_t at = 0; at < len; at += kCellBytes) {
    const std::uint64_t off = offset + at;
    const Cell c = {tag, off, version, checksum(tag, off, version)};
    std::memcpy(out.data() + at, c.data(), kCellBytes);
  }
  return imca::Buffer::take(std::move(out));
}

std::uint32_t Oracle::begin_write(std::uint32_t file, std::uint32_t chunk) {
  Chunk& c = chunks_[index(file, chunk)];
  c.issued += 1;
  size_issued_[file] = std::max(size_issued_[file], (chunk + 1) * io_bytes_);
  return c.issued;
}

void Oracle::end_write(std::uint32_t file, std::uint32_t chunk,
                       std::uint32_t version, bool ok) {
  if (!ok) return;
  Chunk& c = chunks_[index(file, chunk)];
  c.committed = std::max(c.committed, version);
  size_committed_[file] =
      std::max(size_committed_[file], (chunk + 1) * io_bytes_);
}

void Oracle::mark_populated(std::uint32_t file, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t n = bytes / io_bytes_;
  for (std::uint64_t k = 0; k < n; ++k) {
    Chunk& c = chunks_[index(file, static_cast<std::uint32_t>(k))];
    c.committed = c.issued = 1;
  }
  size_committed_[file] = size_issued_[file] = bytes;
}

Oracle::Window Oracle::window(std::uint32_t file, std::uint32_t chunk) const {
  Window w;
  if (io_bytes_ > 0 && first_chunk_[file] + chunk < chunks_.size()) {
    w.committed = chunks_[index(file, chunk)].committed;
  }
  w.size_committed = size_committed_[file];
  return w;
}

std::string Oracle::check_read(std::uint32_t file, std::uint32_t chunk,
                               const Window& at_issue,
                               const imca::Buffer& data) const {
  const std::uint32_t lo = at_issue.committed;
  const std::uint32_t hi = chunks_[index(file, chunk)].issued;
  if (lo > 0 && data.size() != io_bytes_) {
    return "short read: " + std::to_string(data.size()) + " of " +
           std::to_string(io_bytes_) + " bytes";
  }
  if (data.size() > io_bytes_ || data.size() % kCellBytes != 0) {
    return "read length " + std::to_string(data.size()) + " is not cell-aligned";
  }
  const std::uint64_t tag = tags_[file];
  const std::uint64_t base = chunk * io_bytes_;
  std::string why;
  const bool ok = for_each_cell(data, [&](std::uint64_t i, const Cell& c) {
    const std::uint64_t off = base + i * kCellBytes;
    if (c == Cell{}) {
      if (lo == 0) return true;
      why = "zeros at offset " + std::to_string(off) + " after version " +
            std::to_string(lo) + " was committed";
      return false;
    }
    if (c[0] != tag || c[1] != off || c[3] != checksum(c[0], c[1], c[2])) {
      why = "foreign or corrupt cell at offset " + std::to_string(off);
      return false;
    }
    if (c[2] < lo || c[2] > hi) {
      why = "version " + std::to_string(c[2]) + " at offset " +
            std::to_string(off) + " outside [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]";
      return false;
    }
    return true;
  });
  if (!ok && why.empty()) why = "cell split across the end of the reply";
  return why;
}

std::string Oracle::check_stat(std::uint32_t file, const Window& at_issue,
                               std::uint64_t size) const {
  if (size < at_issue.size_committed || size > size_issued_[file]) {
    return "stat size " + std::to_string(size) + " outside [" +
           std::to_string(at_issue.size_committed) + ", " +
           std::to_string(size_issued_[file]) + "]";
  }
  return {};
}

}  // namespace perfbench
