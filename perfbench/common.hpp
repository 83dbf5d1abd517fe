// Shared helpers of the perfbench binary: clocks, order statistics, and
// the per-run record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}
/// A percentile is reported only with at least ten samples beyond it.
inline bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();
/// User + system CPU seconds of this process so far.
double self_cpu_s();

/// How fast the cores a workload runs on are, measured while it runs.
///
/// The host gives each virtual CPU a share of a physical core whose speed
/// moves by up to half with other tenants' load, in states that last
/// seconds to minutes and differ from core to core. A probe thread runs a
/// fixed kernel on the workload's own cores and counts its work per CPU
/// second; `speed()` is that rate over a fixed reference rate, and a CPU
/// time or latency times `speed()` is what it would be on a reference
/// core. The time metrics of every workload are reported that way.
class SpeedProbe {
 public:
  struct Mark {
    double self_cpu_s = 0.0;  ///< the constructing thread's CPU time
    std::vector<double> units, probe_cpu_s;  ///< per probe thread
  };
  /// Pin the calling thread to the CPU it is on and start one probe
  /// thread beside it at nice 10: the two time-share the core in slices
  /// of milliseconds, the probe taking about a tenth, so it sees the core
  /// states the calling thread runs in.
  SpeedProbe();
  /// One probe thread at idle priority on each of `cpus`: it runs only
  /// when nothing else wants the CPU, so it measures the core between
  /// the bursts of the work placed there, and takes no time from it.
  explicit SpeedProbe(const std::vector<int>& cpus);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  Mark mark() const;
  /// Mean probe rate between two marks over the reference rate; throws
  /// when a probe got no CPU time between them.
  static double speed(const Mark& a, const Mark& b);
  /// The calling thread's CPU time between two marks, on a reference core.
  static double ref_s(const Mark& a, const Mark& b) {
    return (b.self_cpu_s - a.self_cpu_s) * speed(a, b);
  }

 private:
  struct Probe;
  void start(int cpu, bool idle);
  std::vector<Probe*> probes_;
};

/// The CPUs this thread may run on.
std::vector<int> allowed_cpus();
/// Restrict the calling thread to `cpus` (threads and processes it starts
/// afterwards inherit the set).
void pin_to(const std::vector<int>& cpus);

/// What one run reports: operation counts, correctness, and the metrics
/// (end-to-end when untraced, per-layer when traced), printed by name.
struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Record a failed check (stderr) and clear `correct`.
  void fail_check(const std::string& what);
};

}  // namespace perfbench
