// imca_perfbench — the repository benchmark's measuring process.
//
//   imca_perfbench --workload <stat-storm|stream-read|mixed-rw> --seed <n>
//                  --seconds <s> --trace <0|1> [--spans-out <file>]
//
// One workload per process, so peak RSS belongs to it. The process repeats
// whole iterations (fresh testbed, set-up, timed phase) until --seconds is
// spent, and reports medians of the host metrics, each iteration scaled by
// the host's measured speed (HostSpeed below). Simulated metrics are
// deterministic per seed; every iteration must reproduce them exactly.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced iterations and prints the per-layer metrics (counters of the
// traced run, layer replays, trace overhead). Lines starting with '#' are a
// human-readable table; the line before the last is the full result record
// (host fingerprint, sample counts, ratio bases); the last line is the
// summary {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every call was answered correctly and every check held.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/layers.h"
#include "harness/reference.h"
#include "harness/replay.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMinTracePairs = 2;
constexpr double kReplaySeconds = 0.25;
// reference_rate() of the host the benchmark was defined on (a 4-vCPU Xeon
// VM, Release build): host metrics read as if measured on that host.
constexpr double kNominalReferenceRate = 330000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "imca_perfbench: %s\nusage: imca_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n"
               "workloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Everything a later iteration must reproduce exactly.
std::vector<double> sim_fingerprint(const IterationResult& r) {
  std::vector<double> v;
  for (const auto& m : sim_metrics(r)) v.push_back(m.value);
  for (const auto& m : layer_metrics(r)) v.push_back(m.value);
  return v;
}

// Call counts, failures and the determinism check over every iteration.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // the first few
  std::uint64_t problem_count = 0;
  std::vector<double> reference;  // sim fingerprint of the first iteration

  void add(const IterationResult& r, const char* label) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& f : r.failures) note(f);
    const auto fp = sim_fingerprint(r);
    if (reference.empty()) {
      reference = fp;
    } else if (fp != reference) {
      note(std::string(label) +
           " iteration did not reproduce the simulated results");
    }
  }

  // Keeps the report short; any problem at all makes the run incorrect.
  void note(std::string why) {
    ++problem_count;
    if (problems.size() < 10) problems.push_back(std::move(why));
  }
};

double fops_per_host_s(const IterationResult& r) {
  return r.timed_host_s > 0 ? static_cast<double>(r.attempted) / r.timed_host_s
                            : 0;
}

void write_spans(const std::string& path, const Workload& w,
                 const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "imca_perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "# workload=" << w.name << " seed=" << w.seed << "\n"
      << "op_id\tworkload\tclient\tkind\tsim_start_ns\tsim_end_ns\t"
         "host_start_ns\thost_end_ns\n";
  for (const Span& s : spans) {
    out << s.op_id << '\t' << w.name << '\t' << s.client << '\t'
        << kind_name(s.kind) << '\t' << s.sim_start << '\t' << s.sim_end << '\t'
        << s.host_start_ns << '\t' << s.host_end_ns << '\n';
  }
}

int finish(const Args& args, const Workload& w, const Checks& run,
           const std::vector<Metric>& detail,
           const std::vector<Metric>& summary, std::size_t iterations,
           std::uint64_t mcd_items_at_start) {
  const bool correct = run.failed == 0 && run.problem_count == 0;
  print_table(w.name + " (seed " + std::to_string(w.seed) +
                  (args.trace ? ", traced" : "") + ")",
              detail);
  std::printf("# sizes: %s\n", w.sizes.c_str());
  std::printf("# cache start state: %llu MCD items at the start of the timed"
              " phase; %zu closed-loop clients\n",
              static_cast<unsigned long long>(mcd_items_at_start),
              w.n_clients());
  for (const auto& p : run.problems) std::printf("# PROBLEM: %s\n", p.c_str());
  if (run.problem_count > run.problems.size()) {
    std::printf("# ... %llu problems in all\n",
                static_cast<unsigned long long>(run.problem_count));
  }
  if (!host_metrics_valid()) {
    std::printf("# WARNING: assertion or sanitizer build; host metrics are"
                " invalid\n");
  }
  std::printf(
      "{\"schema\": \"imca-perfbench/v1\", \"workload\": %s, \"seed\": %llu, "
      "\"trace\": %d, \"iterations\": %zu, \"clients\": %zu, "
      "\"mcd_items_at_start\": %llu, \"sizes\": %s, \"host\": %s, "
      "\"metrics\": %s}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(w.seed),
      args.trace ? 1 : 0, iterations, w.n_clients(),
      static_cast<unsigned long long>(mcd_items_at_start),
      json_string(w.sizes).c_str(), fingerprint_json().c_str(),
      metrics_json(detail, true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              metrics_json(summary, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::string spread_note(const std::vector<double>& v) {
  if (v.empty()) return {};
  char buf[96];
  std::snprintf(buf, sizeof buf, " (min %.6g, max %.6g)",
                *std::min_element(v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()));
  return buf;
}

Metric host_metric(const char* name, const std::vector<double>& v,
                   const char* unit) {
  return {name, median(v), unit, v.size(),
          "median over iterations" + spread_note(v)};
}

// Speed of the host relative to the nominal one, from reference batches run
// between iterations. Each iteration is scaled by the mean of the batches
// just before and just after it, so the drift of a shared host (its memory
// speed swings by a third over tens of seconds) largely cancels out of the
// gated host metrics; the raw values stay in the record. The first batch
// runs only after the first iteration, which is scaled by it alone, so the
// reference's own memory is not part of that iteration's peak RSS.
class HostSpeed {
 public:
  double after_iteration() {
    const double now = reference_rate();
    const double before = samples_.empty() ? now : last_;
    const double speed = 0.5 * (before + now) / kNominalReferenceRate;
    last_ = now;
    samples_.push_back(speed);
    return speed;
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  double last_ = 0;
  std::vector<double> samples_;
};

int run_untraced(const Args& args, const Workload& w) {
  Checks checks;
  HostSpeed speed;
  std::vector<double> setup_s, fops, raw_setup_s, raw_fops;
  std::uint64_t items_at_start = 0;
  std::vector<Metric> sim;
  double rss_mb = 0;
  const auto start = Clock::now();
  double last = 0;
  while (fops.size() < kMinIterations || since(start) + last <= args.seconds) {
    const auto t = Clock::now();
    const IterationResult r = run_iteration(w, false);
    if (fops.empty()) {
      rss_mb = peak_rss_mb();  // before the first reference batch
      sim = sim_metrics(r);
      items_at_start = r.mcd_items_at_start;
    }
    const double s = speed.after_iteration();
    checks.add(r, "untraced");
    raw_setup_s.push_back(r.setup_host_s);
    raw_fops.push_back(fops_per_host_s(r));
    setup_s.push_back(r.setup_host_s * s);
    fops.push_back(fops_per_host_s(r) / s);
    last = since(t);
  }
  std::vector<Metric> summary = {
      host_metric("fops_per_host_s", fops, "1/s"),
      host_metric("setup_s", setup_s, "s"),
      {"peak_rss_mb", rss_mb, "MB", 1,
       "getrusage ru_maxrss after the first iteration"},
  };
  std::vector<Metric> detail = summary;
  detail.push_back(host_metric("fops_per_host_s_raw", raw_fops, "1/s"));
  detail.push_back(host_metric("setup_s_raw", raw_setup_s, "s"));
  detail.push_back(host_metric("host_speed", speed.samples(), "ratio"));
  for (const auto& m : sim) {
    if (m.name == "sim_call_mean_us" || m.name == "sim_call_p99_us" ||
        m.name == "sim_makespan_s") {
      summary.push_back(m);
    }
    detail.push_back(m);
  }
  return finish(args, w, checks, detail, summary, fops.size(), items_at_start);
}

int run_traced(const Args& args, const Workload& w) {
  Checks checks;  // traced iterations must reproduce the untraced results
  HostSpeed speed;
  std::vector<double> plain_fops;
  std::vector<double> traced_fops;
  std::vector<double> ns_per_event;
  IterationResult traced;
  const auto start = Clock::now();
  double pair_s = 0;
  const double budget = args.seconds - 4 * kReplaySeconds;
  while (plain_fops.size() < kMinTracePairs || since(start) + pair_s <= budget) {
    const auto t = Clock::now();
    const IterationResult plain = run_iteration(w, false);
    const double s = speed.after_iteration();
    checks.add(plain, "untraced");
    plain_fops.push_back(fops_per_host_s(plain) / s);
    const auto events = plain.after.events - plain.before.events;
    ns_per_event.push_back(events ? plain.timed_host_s * 1e9 * s /
                                        static_cast<double>(events)
                                  : 0);
    traced = run_iteration(w, true);
    traced_fops.push_back(fops_per_host_s(traced) / speed.after_iteration());
    checks.add(traced, "traced");
    pair_s = since(t);
  }
  for (auto& p : reconcile(traced)) checks.note("reconcile: " + p);

  std::vector<Metric> layers = layer_metrics(traced);
  layers.insert(layers.begin() + 1,
                host_metric("sim.host_ns_per_event", ns_per_event, "ns"));
  for (auto& m : run_replays(w, kReplaySeconds)) layers.push_back(m);
  const double plain = median(plain_fops);
  layers.push_back({"trace.overhead_pct",
                    plain > 0 ? (plain - median(traced_fops)) / plain * 100 : 0,
                    "%", plain_fops.size(),
                    "untraced vs traced fops_per_host_s medians"});
  if (!args.spans_out.empty()) write_spans(args.spans_out, w, traced.spans);
  std::vector<Metric> detail = layers;
  for (auto& m : sim_metrics(traced)) detail.push_back(m);
  return finish(args, w, checks, detail, layers, 2 * plain_fops.size(),
                traced.mcd_items_at_start);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto w = make_workload(args.workload, args.seed, Scale::kFull);
  if (!w) usage(("unknown workload " + args.workload).c_str());
  return args.trace ? run_traced(args, *w) : run_untraced(args, *w);
}
