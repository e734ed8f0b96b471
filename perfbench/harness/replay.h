// Host cost of single layers, measured by replaying the workload's own
// reconstructed inputs into each layer's public functions on one thread.
// (Coroutines interleave inside the simulation, so host time around a
// co_await is not a layer's self time; the replays are.)
#pragma once

#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/workloads.h"

namespace perfbench {

// memcache.host_ns_per_request, mcclient.host_ns_per_key,
// store.object_store.host_ns_per_op, gluster.protocol.host_ns_per_fop.
// Each replay repeats its stream until `seconds_each` has passed (at least
// three passes) and reports the median pass.
std::vector<Metric> run_replays(const Workload& w, double seconds_each);

}  // namespace perfbench
