// A fixed reference workload owned by the benchmark: it measures how fast the
// host is at this moment, on the kind of work the simulator does (string-keyed
// hash lookups, ordered-map churn, allocations and copies over a heap of tens
// of MiB). It calls nothing in src/, so it does not change with the simulator.
#pragma once

namespace perfbench {

// Reference operations per host second over one short, fixed batch.
double reference_rate();

}  // namespace perfbench
