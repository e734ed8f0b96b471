// Per-layer metrics of one timed phase, read from outside through public
// counters and sim::FifoResource stations (before/after deltas), plus the
// checks that the traced numbers reconcile with the end-to-end ones.
#pragma once

#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/runner.h"

namespace perfbench {

// Counter-based layer metrics (everything but host-time replays).
std::vector<Metric> layer_metrics(const IterationResult& r);

// Simulated end-to-end metrics of one iteration (deterministic per seed).
std::vector<Metric> sim_metrics(const IterationResult& r);

// Problems found reconciling spans, stations and counters; empty when the
// trace agrees with the end-to-end numbers.
std::vector<std::string> reconcile(const IterationResult& traced);

}  // namespace perfbench
