#include "store/object_store.h"

#include <algorithm>
#include <utility>

#include "store/page_cache.h"

namespace imca::store {

void Attr::encode(ByteBuf& out) const {
  out.put_u64(inode);
  out.put_u64(size);
  out.put_u32(mode);
  out.put_u32(nlink);
  out.put_u64(atime);
  out.put_u64(mtime);
  out.put_u64(ctime);
}

Expected<Attr> Attr::decode(ByteBuf& in) {
  Attr a;
  auto inode = in.get_u64();
  if (!inode) return inode.error();
  a.inode = *inode;
  auto size = in.get_u64();
  if (!size) return size.error();
  a.size = *size;
  auto mode = in.get_u32();
  if (!mode) return mode.error();
  a.mode = *mode;
  auto nlink = in.get_u32();
  if (!nlink) return nlink.error();
  a.nlink = *nlink;
  auto atime = in.get_u64();
  if (!atime) return atime.error();
  a.atime = *atime;
  auto mtime = in.get_u64();
  if (!mtime) return mtime.error();
  a.mtime = *mtime;
  auto ctime = in.get_u64();
  if (!ctime) return ctime.error();
  a.ctime = *ctime;
  return a;
}

namespace {

constexpr std::uint64_t kPage = PageCache::kPageSize;

}  // namespace

Expected<Attr> ObjectStore::create(std::string_view path, SimTime now,
                                   std::uint32_t mode) {
  auto [it, inserted] = files_.try_emplace(std::string(path));
  if (!inserted) return Errc::kExist;
  File& f = it->second;
  f.attr.inode = next_inode_++;
  f.attr.mode = mode;
  f.attr.atime = f.attr.mtime = f.attr.ctime = now;
  return f.attr;
}

Expected<void> ObjectStore::unlink(std::string_view path) {
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  total_bytes_ -= it->second.attr.size;
  files_.erase(it);
  return {};
}

bool ObjectStore::exists(std::string_view path) const {
  return files_.contains(path);
}

Expected<Attr> ObjectStore::stat(std::string_view path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  return it->second.attr;
}

void ObjectStore::resize(File& f, std::uint64_t size) {
  total_bytes_ = total_bytes_ - f.attr.size + size;
  const bool shrink = size < f.attr.size;
  f.attr.size = size;
  f.pages.resize(static_cast<std::size_t>((size + kPage - 1) / kPage));
  if (!shrink || f.pages.empty()) return;
  // Copy-on-write the new last page: a page is never mutated, and bytes past
  // the new EOF must not come back if the file grows again.
  Segment& last = f.pages.back();
  const std::uint64_t keep = size - (f.pages.size() - 1) * kPage;
  if (last.size() > keep) last = Segment::copy_of(last.bytes().first(keep));
}

Expected<std::uint64_t> ObjectStore::write(std::string_view path,
                                           std::uint64_t offset,
                                           const Buffer& data, SimTime now) {
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  File& f = it->second;
  const std::uint64_t end = offset + data.size();
  if (end > f.attr.size) resize(f, end);
  for (std::uint64_t pos = offset; pos < end;) {
    const std::size_t p = static_cast<std::size_t>(pos / kPage);
    const std::uint64_t base = p * kPage;
    const std::size_t lo = pos - base;
    const std::size_t hi = std::min(end - base, kPage);
    // The fresh page holds the payload plus whatever of the old page the
    // write leaves uncovered; anything in between reads as zeros anyway.
    Buffer old;
    old.append(BufView(f.pages[p]));
    std::vector<std::byte> page(std::max(old.size(), hi));
    const std::span<std::byte> out(page);
    old.copy_to(0, out.first(std::min(lo, old.size())));
    data.copy_to(pos - offset, out.subspan(lo, hi - lo));
    old.copy_to(hi, out.subspan(hi));
    f.pages[p] = Segment::take(std::move(page));
    pos = base + hi;
  }
  f.attr.mtime = f.attr.ctime = now;
  return f.attr.size;
}

Expected<Buffer> ObjectStore::read(std::string_view path,
                                   std::uint64_t offset,
                                   std::uint64_t len) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  const File& f = it->second;
  if (offset >= f.attr.size) return Buffer{};
  const std::uint64_t end = offset + std::min(len, f.attr.size - offset);
  Buffer out;
  std::size_t zeros = 0;  // pending hole bytes, emitted as one segment
  for (std::uint64_t pos = offset; pos < end;) {
    const std::size_t p = static_cast<std::size_t>(pos / kPage);
    const std::size_t in = pos - p * kPage;
    const std::size_t n = std::min(end - pos, kPage - in);
    const Segment& page = f.pages[p];
    const std::size_t have = page.size() > in ? std::min(n, page.size() - in)
                                              : 0;
    if (have > 0) {
      if (zeros > 0) out.append(Buffer::zeros(std::exchange(zeros, 0)));
      out.append(BufView(page, in, have));
    }
    zeros += n - have;
    pos += n;
  }
  if (zeros > 0) out.append(Buffer::zeros(zeros));
  return out;
}

Expected<void> ObjectStore::truncate(std::string_view path, std::uint64_t size,
                                     SimTime now) {
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  File& f = it->second;
  resize(f, size);
  f.attr.mtime = f.attr.ctime = now;
  return {};
}

Expected<void> ObjectStore::rename(std::string_view from, std::string_view to,
                                   SimTime now) {
  auto src = files_.find(from);
  if (src == files_.end()) return Errc::kNoEnt;
  if (from == to) return {};
  // Replace any existing target (POSIX semantics).
  if (auto dst = files_.find(to); dst != files_.end()) {
    total_bytes_ -= dst->second.attr.size;
    files_.erase(dst);
  }
  File moved = std::move(src->second);
  files_.erase(src);
  moved.attr.ctime = now;
  files_.emplace(std::string(to), std::move(moved));
  return {};
}

std::vector<std::string> ObjectStore::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, file] : files_) out.push_back(path);
  return out;
}

}  // namespace imca::store
