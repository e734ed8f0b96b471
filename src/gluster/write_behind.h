// performance/write-behind: aggregates consecutive small writes and flushes
// them to the child as one larger write (paper §2.1 lists Write Behind among
// GlusterFS's stock translators).
//
// Aggregation only: the buffered region is flushed before any operation that
// could observe it (read, stat, close, unlink, non-contiguous write), so the
// translator never changes what a reader sees — only how many wire ops the
// writes cost.
//
// Durability contract (DESIGN.md §5f): the classic mode acks a write while
// its bytes still sit in process memory — a brick crash loses them, exactly
// like real GlusterFS write-behind. Two policy knobs tighten that:
//
//   * flush_before_ack — the run is flushed to the child before any write
//     returns, so an acked byte is always on the child. This is the mode the
//     server-fault matrix runs in ("no acked byte is ever lost").
//   * flush_deadline   — a background task flushes a run at most this long
//     after its first byte was buffered, bounding the unsafe mode's loss
//     window.
//
// A flush that fails off the fop path (deadline flush) sticks its error to
// the path and the next operation on it returns the error — GlusterFS's
// "stuck to the fd" semantics. A crash drops the buffered run without
// flushing (drop_volatile), which is precisely the loss the matrix measures.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "gluster/xlator.h"
#include "sim/event_loop.h"

namespace imca::gluster {

struct WriteBehindParams {
  std::uint64_t flush_threshold = 128 * kKiB;
  // true = ack only after the buffered run reached the child (durable acks).
  bool flush_before_ack = false;
  // >0 = flush a run at most this long after its first byte was buffered.
  SimDuration flush_deadline = 0;
};

class WriteBehindXlator final : public Xlator {
 public:
  WriteBehindXlator(sim::EventLoop& loop, WriteBehindParams params)
      : loop_(loop), params_(params) {}

  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<Buffer>> read(std::string path,
                                   std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<void>> close(std::string path) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> fsync(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from,
                                   std::string to) override;

  std::string_view name() const override { return "write-behind"; }

  // Crash path: discard the buffered run without flushing (those bytes
  // lived in brick memory) and clear any stuck errors. Returns how many
  // bytes died — acked-but-volatile data unless flush_before_ack was on.
  std::uint64_t drop_volatile();

  std::uint64_t flushes() const noexcept { return flushes_; }
  std::uint64_t absorbed_writes() const noexcept { return absorbed_; }
  std::uint64_t deadline_flushes() const noexcept { return deadline_flushes_; }
  std::uint64_t flush_errors() const noexcept { return flush_errors_; }
  std::uint64_t flush_retries() const noexcept { return flush_retries_; }
  std::uint64_t dropped_bytes() const noexcept { return dropped_bytes_; }
  std::uint64_t dropped_runs() const noexcept { return dropped_runs_; }
  std::uint64_t buffered_bytes() const noexcept { return buf_.size(); }

 private:
  // A shed child (kBusy) is retried this many times before the flush gives
  // up: in classic mode the run holds already-acked bytes, so a transient
  // queue-full must not become silent data loss.
  static constexpr unsigned kFlushAttempts = 3;
  static constexpr SimDuration kFlushRetryBackoff = 1 * kMilli;

  sim::Task<Expected<void>> flush();
  // kOk or the error a failed off-path flush stuck to `path` (consumed).
  Errc take_stuck_error(const std::string& path);
  void arm_deadline_flush();
  bool buffering(const std::string& path) const {
    return !buf_.empty() && path == buf_path_;
  }

  sim::EventLoop& loop_;
  WriteBehindParams params_;
  // Liveness token for detached deadline tasks: the loop owns their frames,
  // not this xlator, so they hold a weak_ptr and bail out if it expired
  // while they slept (xlator torn down under a pending deadline).
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  std::string buf_path_;
  std::uint64_t buf_offset_ = 0;
  // Absorbed writes are spliced, not re-copied: segments are immutable, so
  // sharing the writer's storage is safe.
  Buffer buf_;
  // Identifies the current run; bumped whenever the buffer empties so a
  // parked deadline flush can tell "my run is gone" from "still pending".
  std::uint64_t run_id_ = 0;
  bool deadline_armed_ = false;
  // Errors from off-path flushes, stuck to the path until the next op.
  std::unordered_map<std::string, Errc> stuck_errors_;
  std::uint64_t flushes_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t deadline_flushes_ = 0;
  std::uint64_t flush_errors_ = 0;
  std::uint64_t flush_retries_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t dropped_runs_ = 0;
};

}  // namespace imca::gluster
