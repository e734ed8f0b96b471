// In-memory backing store holding the *real bytes* of every file.
//
// This is the ground truth the whole reproduction is checked against: data
// written through any path (GlusterFS, IMCa, Lustre, NFS) lands here, data
// read through any path is a view of it, and the integrity tests compare
// end-to-end reads against direct ObjectStore contents. Time is never
// charged here — the disk/page-cache models own all timing.
//
// A file is an array of immutable page Segments, PageCache::kPageSize bytes
// each (the last one, and any page that was last when written, may be
// shorter). Bytes past a page's end and pages never written are holes and
// read as zeros. A write builds a fresh page for every page it touches and
// an overwrite replaces the page, so a Buffer read earlier keeps the bytes
// it saw, while reads, the wire and the MCD items share the store's pages.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/bytebuf.h"
#include "common/errc.h"
#include "common/expected.h"
#include "common/units.h"

namespace imca::store {

// POSIX-stat-like attribute block. This struct is what SMCache serialises
// into memcached under "<path>:stat" (paper §4.2), so it has a stable wire
// encoding.
struct Attr {
  std::uint64_t inode = 0;
  std::uint64_t size = 0;
  std::uint32_t mode = 0644;
  std::uint32_t nlink = 1;
  SimTime atime = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;

  void encode(ByteBuf& out) const;
  static Expected<Attr> decode(ByteBuf& in);
  // Size of the wire encoding in bytes (what a cached stat item costs):
  // inode + size (u64), mode + nlink (u32), three u64 timestamps.
  static constexpr std::uint64_t kWireSize = 8 * 2 + 4 * 2 + 8 * 3;

  bool operator==(const Attr&) const = default;
};

class ObjectStore {
 public:
  ObjectStore() = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // Create an empty file. Fails with kExist if the path is taken.
  Expected<Attr> create(std::string_view path, SimTime now,
                        std::uint32_t mode = 0644);

  // Remove a file. Fails with kNoEnt.
  Expected<void> unlink(std::string_view path);

  bool exists(std::string_view path) const;

  Expected<Attr> stat(std::string_view path) const;

  // Write bytes at `offset`, extending the file (holes read as zeros).
  // Returns the file's new size. Updates mtime/ctime. This is the one
  // materialization of a payload (the "iobuf -> disk" copy in the ledger):
  // each touched page is rebuilt from `data` plus the old page's bytes the
  // write leaves uncovered, so an unaligned write copies up to one page.
  Expected<std::uint64_t> write(std::string_view path, std::uint64_t offset,
                                const Buffer& data, SimTime now);

  // Read up to `len` bytes from `offset`; short reads at EOF like POSIX.
  // Returns views of the file's pages, with no copy; only holes allocate
  // (zeros, one segment per run of hole bytes).
  Expected<Buffer> read(std::string_view path, std::uint64_t offset,
                        std::uint64_t len) const;

  // Shrinking copies the new last page's kept bytes, so its old tail reads
  // as zeros after a later extension.
  Expected<void> truncate(std::string_view path, std::uint64_t size,
                          SimTime now);

  // POSIX rename: atomically moves `from` to `to`, replacing any existing
  // `to`. The inode is preserved.
  Expected<void> rename(std::string_view from, std::string_view to,
                        SimTime now);

  std::size_t file_count() const noexcept { return files_.size(); }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  // Paths in lexicographic order (deterministic iteration for tests).
  std::vector<std::string> list() const;

 private:
  struct File {
    Attr attr;  // attr.size is the logical size
    std::vector<Segment> pages;  // ceil(size / kPageSize); empty = hole
  };

  // Set `f`'s size, dropping or adding hole pages.
  void resize(File& f, std::uint64_t size);

  std::map<std::string, File, std::less<>> files_;
  std::uint64_t next_inode_ = 1;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace imca::store
