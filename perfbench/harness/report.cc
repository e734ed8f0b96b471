#include "harness/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

constexpr bool kAsserts =
#ifdef NDEBUG
    false;
#else
    true;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

}  // namespace

double percentile_ns(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Metric ratio(std::string name, std::uint64_t num, std::uint64_t den,
             const char* num_label, const char* den_label) {
  Metric m;
  m.name = std::move(name);
  m.value = den == 0 ? 0.0
                     : static_cast<double>(num) / static_cast<double>(den);
  m.unit = "ratio";
  m.samples = den;
  m.basis = std::string(num_label) + "/" + den_label + " = " +
            std::to_string(num) + "/" + std::to_string(den);
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool host_metrics_valid() { return !kAsserts && !kSanitized; }

std::string fingerprint_json() {
  std::string s = "{";
  s += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"cpu\": " + json_string(cpu_model());
  s += ", \"compiler\": " + json_string(__VERSION__);
  s += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  s += std::string(", \"ndebug\": ") + (kAsserts ? "false" : "true");
  s += std::string(", \"sanitizer\": ") + (kSanitized ? "true" : "false");
  s += ", \"git_rev\": " + json_string(PERFBENCH_GIT_REV);
  s += std::string(", \"host_metrics_valid\": ") +
       (host_metrics_valid() ? "true" : "false");
  return s + "}";
}

void print_table(const std::string& title, const std::vector<Metric>& m) {
  std::printf("# %s\n", title.c_str());
  std::printf("# %-44s %16s %-7s %10s  %s\n", "metric", "value", "unit",
              "samples", "basis");
  for (const auto& x : m) {
    std::printf("# %-44s %16.6g %-7s %10llu  %s\n", x.name.c_str(), x.value,
                x.unit.c_str(), static_cast<unsigned long long>(x.samples),
                x.basis.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& m, bool details) {
  std::string s = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) s += ", ";
    s += json_string(m[i].name) + ": {\"value\": " + number(m[i].value) +
         ", \"unit\": " + json_string(m[i].unit);
    if (details) {
      s += ", \"samples\": " + std::to_string(m[i].samples);
      if (!m[i].basis.empty()) s += ", \"basis\": " + json_string(m[i].basis);
    }
    s += "}";
  }
  return s + "}";
}

std::string json_string(const std::string& in) {
  std::string s = "\"";
  for (const char ch : in) {
    if (ch == '"' || ch == '\\') {
      s += '\\';
      s += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      s += buf;
    } else {
      s += ch;
    }
  }
  return s + "\"";
}

}  // namespace perfbench
