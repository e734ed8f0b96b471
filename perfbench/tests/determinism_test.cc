// The benchmark's own self-tests, at a tiny scale:
//  * one seed always gives the same simulated metrics and layer counts;
//  * another seed changes the mixed-rw op stream (the seed is not ignored);
//  * a traced iteration reproduces the untraced one and reconciles;
//  * the correctness oracle rejects corrupted, stale and missing bytes.
#include <gtest/gtest.h>

#include <cstring>

#include "harness/layers.h"
#include "harness/oracle.h"
#include "harness/runner.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

std::vector<double> values(const std::vector<Metric>& m) {
  std::vector<double> v;
  for (const auto& x : m) v.push_back(x.value);
  return v;
}

Workload tiny(const std::string& name, std::uint64_t seed) {
  auto w = make_workload(name, seed, Scale::kTiny);
  EXPECT_TRUE(w.has_value()) << name;
  return *w;
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, SameSeedSameSimulatedResults) {
  const Workload w = tiny(GetParam(), 7);
  const IterationResult a = run_iteration(w, false);
  const IterationResult b = run_iteration(w, false);
  EXPECT_EQ(a.failed, 0u) << (a.failures.empty() ? "" : a.failures.front());
  EXPECT_EQ(a.attempted, w.calls());
  EXPECT_GT(a.attempted, 0u);
  EXPECT_EQ(values(sim_metrics(a)), values(sim_metrics(b)));
  EXPECT_EQ(values(layer_metrics(a)), values(layer_metrics(b)));
  EXPECT_EQ(a.after.events - a.before.events, b.after.events - b.before.events);
}

TEST_P(EveryWorkload, TracingDoesNotPerturbAndReconciles) {
  const Workload w = tiny(GetParam(), 11);
  const IterationResult plain = run_iteration(w, false);
  const IterationResult traced = run_iteration(w, true);
  EXPECT_EQ(traced.failed, 0u);
  EXPECT_EQ(values(sim_metrics(plain)), values(sim_metrics(traced)));
  EXPECT_EQ(values(layer_metrics(plain)), values(layer_metrics(traced)));
  EXPECT_EQ(traced.spans.size(), traced.attempted);
  EXPECT_TRUE(plain.spans.empty());
  const auto problems = reconcile(traced);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

INSTANTIATE_TEST_SUITE_P(Perfbench, EveryWorkload,
                         ::testing::Values("stat-storm", "stream-read",
                                           "mixed-rw"),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(Perfbench, SecondSeedChangesMixedRwStream) {
  const Workload a = tiny("mixed-rw", 1);
  const Workload b = tiny("mixed-rw", 2);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  bool differs = false;
  for (std::size_t c = 0; c < a.ops.size(); ++c) {
    ASSERT_EQ(a.ops[c].size(), b.ops[c].size());
    for (std::size_t i = 0; i < a.ops[c].size(); ++i) {
      const Op& x = a.ops[c][i];
      const Op& y = b.ops[c][i];
      differs |= x.kind != y.kind || x.file != y.file || x.chunk != y.chunk;
    }
  }
  EXPECT_TRUE(differs);
  EXPECT_NE(values(sim_metrics(run_iteration(a, false))),
            values(sim_metrics(run_iteration(b, false))));
}

TEST(Perfbench, UnknownWorkloadIsRejected) {
  EXPECT_FALSE(make_workload("no-such-workload", 1, Scale::kTiny).has_value());
}

TEST(Perfbench, OracleRejectsCorruptStaleAndMissingBytes) {
  const Workload w = tiny("mixed-rw", 3);
  Oracle oracle(w);
  oracle.mark_populated(0, w.files[0].populate_bytes);
  const auto before = oracle.window(0, 1);
  const auto good = oracle.content(0, w.io_bytes, w.io_bytes, 1);
  EXPECT_EQ(oracle.check_read(0, 1, before, good), "");

  std::vector<std::byte> bytes = good.gather();
  bytes[100] ^= std::byte{1};
  EXPECT_NE(oracle.check_read(0, 1, before,
                              imca::Buffer::copy_of(bytes)),
            "");
  EXPECT_NE(oracle.check_read(0, 1, before,
                              imca::Buffer::zeros(w.io_bytes)),
            "");
  // Bytes of another offset or another file are foreign.
  EXPECT_NE(oracle.check_read(0, 1, before,
                              oracle.content(0, 0, w.io_bytes, 1)),
            "");
  EXPECT_NE(oracle.check_read(0, 1, before,
                              oracle.content(1, w.io_bytes, w.io_bytes, 1)),
            "");
  EXPECT_NE(oracle.check_read(0, 1, before, good.slice(0, w.io_bytes / 2)),
            "");

  // Version 2 completes: a read issued afterwards may not see version 1.
  const auto v = oracle.begin_write(0, 1);
  EXPECT_EQ(v, 2u);
  const auto during = oracle.window(0, 1);
  EXPECT_EQ(oracle.check_read(0, 1, during, good), "");  // overlap: either
  oracle.end_write(0, 1, v, true);
  const auto after = oracle.window(0, 1);
  EXPECT_NE(oracle.check_read(0, 1, after, good), "");
  EXPECT_EQ(oracle.check_read(0, 1, after,
                              oracle.content(0, w.io_bytes, w.io_bytes, 2)),
            "");
  EXPECT_EQ(oracle.check_stat(0, after, w.files[0].populate_bytes), "");
  EXPECT_NE(oracle.check_stat(0, after, w.files[0].populate_bytes - 1), "");
}

}  // namespace
}  // namespace perfbench
