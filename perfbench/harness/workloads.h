// The benchmark's workloads: every input (file set, per-client op streams,
// start offsets) is generated here from the seed, before any testbed exists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/testbed.h"

namespace perfbench {

enum class OpKind : std::uint8_t { kStat = 0, kRead = 1, kWrite = 2, kBarrier = 3 };
inline constexpr std::size_t kKinds = 3;  // stat, read, write (not barrier)
const char* kind_name(OpKind kind);

// One fsapi call of a client's closed-loop stream. Reads and writes cover
// exactly one io_bytes-sized chunk of the file, chunk-aligned.
struct Op {
  OpKind kind = OpKind::kStat;
  std::uint32_t file = 0;
  std::uint32_t chunk = 0;
};

struct FileSpec {
  std::string path;
  std::uint32_t owner = 0;  // the only client that creates and writes it
  std::uint64_t populate_bytes = 0;  // written (version 1) during set-up
};

// What the untimed set-up leaves open for the timed phase.
enum class Handles {
  kNone,        // files are created and closed; only paths are used
  kOwnerKeeps,  // the owner keeps its create handle (no close: no purge)
  kOpenAll,     // populate + close, then every client opens every file
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  imca::cluster::GlusterTestbedConfig config;
  Handles handles = Handles::kNone;
  std::uint64_t io_bytes = 0;        // read/write request size
  std::uint64_t populate_chunk = 0;  // write size used by set-up
  std::vector<FileSpec> files;
  std::vector<std::vector<Op>> ops;             // per client
  std::vector<imca::SimDuration> start_delay;   // per client
  std::string sizes;  // one-line size summary for the report

  std::size_t n_clients() const noexcept { return ops.size(); }
  std::uint64_t calls() const;  // fsapi calls in the timed phase
};

enum class Scale { kFull, kTiny };

const std::vector<std::string>& workload_names();

// nullopt for an unknown name.
std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, Scale scale);

}  // namespace perfbench
