// cluster/distribute: namespace distribution across bricks (DHT).
//
// "GlusterFS in its default configuration does not stripe the data, but
// instead distributes the namespace across all the servers" (paper §2.1).
// Each path hashes to exactly one subvolume; all fops for that path go
// there. Subvolumes are placed on a consistent-hash ring (`vnodes` points
// per subvolume), so `add_brick`/`remove_brick` move only ~1/(N+1) of the
// namespace instead of reshuffling everything the way `hash % N` would.
//
// Cross-subvolume rename is the DHT's hard case: the data must move. The
// crash-safe sequence stages the bytes under a private name on the
// destination, commits with one brick-local atomic rename(stage -> to), and
// only then unlinks the source. If that final unlink cannot be delivered,
// the rename is still committed: the leftover source name is recorded as a
// pending unlink, hidden from every fop, and physically reaped on the next
// touch (replay-window idempotence at the DHT layer).
//
// A subvolume is any xlator: a ProtocolClient for plain N-brick distribute,
// or a ReplicateXlator for the distribute-over-replicate N x K brick grids
// the testbed composes (DESIGN.md §5i).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "gluster/xlator.h"

namespace imca::gluster {

struct DistributeParams {
  std::size_t vnodes = 128;  // ring points per subvolume
};

struct DistributeStats {
  std::uint64_t cross_renames = 0;       // renames that crossed subvolumes
  std::uint64_t stage_commits = 0;       // staged copies atomically swapped in
  std::uint64_t pending_unlinks = 0;     // source cleanups left owing
  std::uint64_t pending_unlink_replays = 0;  // cleanups reaped on later fops
  std::uint64_t rebalanced_paths = 0;    // paths moved by add/remove_brick
  std::uint64_t rebalance_bytes = 0;
};

struct RebalanceReport {
  std::uint64_t moved = 0;
  std::uint64_t bytes = 0;
};

class DistributeXlator final : public Xlator, public ServerHealth {
 public:
  // Takes ownership of one subvolume xlator per brick (ProtocolClient or a
  // whole replicate group).
  template <typename X>
  explicit DistributeXlator(std::vector<std::unique_ptr<X>> subvols,
                            DistributeParams params = {})
      : params_(params) {
    for (auto& s : subvols) attach(std::move(s));
  }

  sim::Task<Expected<store::Attr>> create(std::string path,
                                          std::uint32_t mode) override;
  sim::Task<Expected<store::Attr>> open(std::string path) override;
  sim::Task<Expected<void>> close(std::string path) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(std::string path, std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from, std::string to) override;
  sim::Task<Expected<void>> fsync(std::string path) override;

  std::string_view name() const override { return "distribute"; }

  // --- ServerHealth: down only while EVERY subvolume's backend is down
  // (the brownout-safety contract — see the definition) ---
  bool server_down() const override;
  SimTime server_down_since() const override;

  std::size_t subvol_count() const noexcept { return subvols_.size(); }
  // Current owner of `path` on the ring, as an index into subvol order.
  std::size_t subvol_of(const std::string& path) const;
  Xlator& subvol(std::size_t i) { return *subvols_.at(i).xl; }

  // Back-compat aliases (the pre-ring API).
  std::size_t brick_count() const noexcept { return subvol_count(); }
  std::size_t brick_of(const std::string& path) const {
    return subvol_of(path);
  }

  // Online ring membership. Adding/removing a subvolume migrates every
  // tracked path whose owner changed (staged copy + atomic swap + source
  // unlink). Run quiesced: concurrent fops on a migrating path race the
  // move. On error the ring keeps its new shape — re-run to finish.
  sim::Task<Expected<RebalanceReport>> add_brick(std::unique_ptr<Xlator> sv);
  sim::Task<Expected<RebalanceReport>> remove_brick(std::size_t index);

  const DistributeStats& stats() const noexcept { return stats_; }

 private:
  struct Subvol {
    std::uint32_t id = 0;
    std::unique_ptr<Xlator> xl;
    ServerHealth* health = nullptr;  // null for plain in-process xlators
  };

  void attach(std::unique_ptr<Xlator> xl);
  std::size_t index_of_id(std::uint32_t id) const;
  std::size_t owner_index(std::uint64_t point) const;
  Xlator& owner(const std::string& path) { return *subvols_[subvol_of(path)].xl; }
  static std::string stage_of(const std::string& path) {
    // '\x01' cannot appear in user paths; staged names never collide.
    return path + "\x01dht-stage";
  }
  // Copy (mode, data) to `path` on `dst` via stage + atomic swap.
  sim::Task<Expected<void>> stage_commit(Xlator* dst, std::string path,
                                         std::uint32_t mode, Buffer data);
  // Move `path` from `src` to `dst` (rebalance step). Bytes moved, 0 if the
  // path vanished from `src` in the meantime.
  sim::Task<Expected<std::uint64_t>> migrate_path(Xlator* src, Xlator* dst,
                                                  std::string path);
  // Reap an owed source unlink. True when the path is no longer owed.
  sim::Task<bool> sweep_pending(std::string path);

  DistributeParams params_;
  std::vector<Subvol> subvols_;
  std::uint32_t next_id_ = 0;
  // vnode point -> subvol id. Ordered: ring walks must be deterministic.
  std::map<std::uint64_t, std::uint32_t> ring_;
  // Paths created/seen through this xlator — the rebalance work list.
  std::set<std::string> live_paths_;
  // Renamed-away sources whose physical unlink is still owed: path -> the
  // subvol id holding the stale file. Fops treat these names as absent.
  std::map<std::string, std::uint32_t> pending_unlinks_;
  DistributeStats stats_;
};

}  // namespace imca::gluster
