// SMCache — the Server Memory Cache translator (paper §4.1, §4.3.2).
//
// Sits at the top of the GlusterFS *server* stack. On the way down it may
// transform operations (reads are widened to IMCa block alignment); on the
// way back up — the paper's "hooks in the callback handler" — it feeds
// results to the MCD array:
//
//   open   : purge the file's blocks from the MCDs, then publish its stat.
//   stat   : republish the stat structure.
//   read   : read the aligned covering region from the file system, publish
//            every full block, return the requested slice.
//   write  : write to the file system FIRST (writes are always persistent),
//            then read back the aligned covering region and publish it; in
//            threaded mode the read-back + publish leave the fop path.
//   close  : discard the file's data from the MCDs.
//   unlink : remove, then purge (no false positives, §4.2).
//
// Because only this one server-side component ever writes the cache, and it
// does so after the file system accepted the data, MCD failures can lose
// cached copies but never truth — the property the failure-injection tests
// verify.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stat_fields.h"
#include "gluster/xlator.h"
#include "imca/block_mapper.h"
#include "imca/config.h"
#include "imca/keys.h"
#include "mcclient/client.h"
#include "sim/sync.h"

namespace imca::core {

struct SmCacheStats {
  std::uint64_t blocks_published = 0;  // block sets that reached a daemon
  std::uint64_t stats_published = 0;   // stat sets that reached a daemon
  std::uint64_t purges = 0;            // whole-file purges
  std::uint64_t blocks_purged = 0;     // block deletes with a clean outcome
  std::uint64_t readbacks = 0;         // write-path read-backs
  std::uint64_t worker_jobs = 0;       // jobs taken off the fop path
  // Publishes lost to a dead/faulted daemon: the bytes stay server-only
  // (safe — readers miss and degrade).
  std::uint64_t publish_drops = 0;
  // Purges the writer gave up on uncleanly after exhausting its retry
  // budget. Nonzero only under sustained blackhole faults, which exceed the
  // failure model (DESIGN.md §5d) — tests assert this stays zero.
  std::uint64_t purge_drops = 0;
  // Publishes skipped because the brick process was down: a dead daemon
  // cannot push data, and a crashed brick's disk may be behind its replica
  // siblings — publishing it would poison the shared MCD array.
  std::uint64_t publishes_suppressed = 0;
  // Queued update jobs that died with the process at crash().
  std::uint64_t jobs_dropped_in_crash = 0;
  // Replica-brick write path (ImcaConfig::replica_bricks): edge blocks and
  // stat items deleted instead of republished, because their value would
  // depend on this brick's possibly-stale local disk.
  std::uint64_t write_invalidations = 0;
  static constexpr auto fields() {
    using S = SmCacheStats;
    return stat_fields<S>({
        {"blocks_published", &S::blocks_published},
        {"stats_published", &S::stats_published}, {"purges", &S::purges},
        {"blocks_purged", &S::blocks_purged}, {"readbacks", &S::readbacks},
        {"worker_jobs", &S::worker_jobs}, {"publish_drops", &S::publish_drops},
        {"purge_drops", &S::purge_drops},
        {"publishes_suppressed", &S::publishes_suppressed},
        {"jobs_dropped_in_crash", &S::jobs_dropped_in_crash},
        {"write_invalidations", &S::write_invalidations}
    });
  }
};

class SmCacheXlator final : public gluster::Xlator {
 public:
  SmCacheXlator(sim::EventLoop& loop,
                std::unique_ptr<mcclient::McClient> mcds, ImcaConfig cfg);
  ~SmCacheXlator() override;

  sim::Task<Expected<store::Attr>> open(std::string path) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(std::string path,
                                   std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> close(std::string path) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from,
                                   std::string to) override;

  std::string_view name() const override { return "smcache"; }

  // Process death: queued publish jobs and memoized sizes die with the
  // brick. Invalidations are NOT affected — purges stay coupled to the
  // mutation itself (the same journal-entry modeling as the replay window),
  // which is the correctness half; publishes are only warmth.
  void on_server_crash() override;
  void on_server_restart() override;

  const SmCacheStats& stats() const noexcept { return stats_; }
  mcclient::McClient& mcds() noexcept { return *mcds_; }
  const BlockMapper& mapper() const noexcept { return mapper_; }

  // Wait until the update worker has drained (threaded mode); used by tests
  // and benches that must observe a settled cache.
  sim::Task<void> quiesce();

 private:
  struct Job {
    std::string path;
    std::uint64_t offset = 0;  // aligned region start
    std::uint64_t length = 0;  // aligned region length
    std::uint64_t epoch = 0;   // boot epoch at enqueue; stale jobs are dropped
    // Replica-brick write jobs publish from the write's own payload instead
    // of a local read-back (see ImcaConfig::replica_bricks).
    bool from_payload = false;
    Buffer payload;                  // views of the write's segments
    std::uint64_t write_offset = 0;  // absolute offset of payload[0]
  };

  // Publish every block of `data` (which starts at aligned `region_start`)
  // as zero-copy slices of its segments. Blocks shorter than the block size
  // mark EOF; empty blocks are skipped.
  sim::Task<void> publish_blocks(std::string path,
                                 std::uint64_t region_start, Buffer data);
  sim::Task<void> publish_stat(std::string path,
                               store::Attr attr);
  // Delete the stat item and every block up to `highest_byte`.
  sim::Task<void> purge(std::string path, std::uint64_t highest_byte);
  // Delete blocks covering [from_byte, to_byte) — stale-EOF cleanup.
  sim::Task<void> purge_range(std::string path, std::uint64_t from_byte,
                              std::uint64_t to_byte);
  // Read the aligned region back from the file system and publish it —
  // unless the brick crashed since `epoch` (the readback may span a crash).
  sim::Task<void> readback_and_publish(std::string path, std::uint64_t start,
                                       std::uint64_t length,
                                       std::uint64_t epoch);
  // Replica-safe write publish: set every block fully covered by the
  // write's payload, delete the partially-covered edge blocks and the stat
  // item (their completion would come from possibly-stale local disk).
  sim::Task<void> publish_write_covered(std::string path,
                                        std::uint64_t write_offset,
                                        Buffer payload);
  sim::Task<void> worker_loop();

  sim::EventLoop& loop_;
  std::unique_ptr<mcclient::McClient> mcds_;
  BlockMapper mapper_;
  ImcaConfig cfg_;
  SmCacheStats stats_;

  // Highest byte ever published per path — bounds purges.
  std::unordered_map<std::string, std::uint64_t> published_extent_;
  // File sizes as last observed from fop results. Lets the write hook detect
  // hole-creating writes (stale short block at the old EOF) without paying a
  // server stat on every write.
  std::unordered_map<std::string, std::uint64_t> known_size_;

  // Brick process state, driven by on_server_crash()/on_server_restart().
  // While down, every publish is suppressed: the daemon is dead, and after
  // a restart the local disk may be stale until self-heal catches it up.
  bool down_ = false;
  std::uint64_t boot_epoch_ = 0;  // bumped at every crash

  sim::Channel<Job> jobs_;
  std::uint64_t jobs_pending_ = 0;
  sim::Event* drained_ = nullptr;  // armed by quiesce()
  // Caller-owned worker frame (threaded mode): declared after jobs_ so it is
  // destroyed first, cancelling a worker still parked in jobs_.recv() while
  // the channel is alive. No detached frame survives shutdown.
  sim::Task<void> worker_;
};

}  // namespace imca::core
