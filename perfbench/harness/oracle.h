// Correctness oracle. Every byte a workload writes is self-describing: the
// file is cut into 32-byte cells, each holding (path tag, byte offset,
// version, checksum). A read is checked cell by cell against the versions
// that could legally be visible during the call; a stat's size against the
// extents written so far. Checks run in every build type (no assert()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "harness/workloads.h"

namespace perfbench {

inline constexpr std::uint64_t kCellBytes = 32;

class Oracle {
 public:
  explicit Oracle(const Workload& w);

  // Content of [offset, offset + len) of `file` at `version`.
  imca::Buffer content(std::uint32_t file, std::uint64_t offset,
                       std::uint64_t len, std::uint32_t version) const;

  // Closed-loop bookkeeping of one chunk-aligned write.
  std::uint32_t begin_write(std::uint32_t file, std::uint32_t chunk);
  void end_write(std::uint32_t file, std::uint32_t chunk,
                 std::uint32_t version, bool ok);
  // Set-up wrote version 1 over [0, bytes) of `file`.
  void mark_populated(std::uint32_t file, std::uint64_t bytes);

  // Snapshot taken when a read/stat is issued; the check runs at return.
  struct Window {
    std::uint32_t committed = 0;  // newest version complete at issue
    std::uint64_t size_committed = 0;
  };
  Window window(std::uint32_t file, std::uint32_t chunk) const;

  // Empty string when the read is correct, else a description.
  std::string check_read(std::uint32_t file, std::uint32_t chunk,
                         const Window& at_issue,
                         const imca::Buffer& data) const;
  std::string check_stat(std::uint32_t file, const Window& at_issue,
                         std::uint64_t size) const;

 private:
  struct Chunk {
    std::uint32_t committed = 0;  // 0 = never written (a hole)
    std::uint32_t issued = 0;
  };
  std::size_t index(std::uint32_t file, std::uint32_t chunk) const;

  std::uint64_t seed_;
  std::uint64_t io_bytes_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::size_t> first_chunk_;
  std::vector<Chunk> chunks_;
  std::vector<std::uint64_t> size_committed_;
  std::vector<std::uint64_t> size_issued_;
};

}  // namespace perfbench
