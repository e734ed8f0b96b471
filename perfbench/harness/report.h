// Metric records, order statistics, the host fingerprint and output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // values behind the number (calls, runs, ...)
  std::string basis;          // for ratios: "numerator/denominator = a/b"
};

// Nearest-rank percentile (q in (0, 1]) of simulated durations in ns.
double percentile_ns(std::vector<std::uint64_t> v, double q);
double median(std::vector<double> v);

// A ratio that states its base; 0 when the denominator is 0.
Metric ratio(std::string name, std::uint64_t num, std::uint64_t den,
             const char* num_label, const char* den_label);

// Peak resident set of this process, from getrusage.
double peak_rss_mb();

// nproc, CPU model, compiler, build type, NDEBUG/sanitizer state, git rev.
std::string fingerprint_json();
// False for assertion or sanitizer builds, whose host timings mislead.
bool host_metrics_valid();

// "# name value unit samples basis" lines for a human reader.
void print_table(const std::string& title, const std::vector<Metric>& m);
// {"name": {"value": v, "unit": u}, ...}; with details also samples/basis.
std::string metrics_json(const std::vector<Metric>& m, bool details);
std::string json_string(const std::string& s);

}  // namespace perfbench
