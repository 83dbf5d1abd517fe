#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "util/error.hpp"

namespace perfbench {

double self_peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double self_cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

namespace {

/// Probe units per CPU second of a reference core: about what a core of
/// the reference host (README.md) does in its fast state.
constexpr double kRefUnitsPerS = 40000.0;

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

cpu_set_t cpu_set(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return set;
}

/// One probe unit: a 48 x 48 matrix product, L1-resident like the
/// solver's small dense kernels.
constexpr int kN = 48;

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    throw gs::Error("cannot read the CPU affinity");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  const cpu_set_t set = cpu_set(cpus);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    throw gs::Error("cannot set the CPU affinity");
}

struct SpeedProbe::Probe {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> units{0};
  std::atomic<int> started{0};  ///< 1 running, -1 failed to place
  clockid_t clock{};
  std::thread thread;
};

SpeedProbe::SpeedProbe() {
  const int cpu = sched_getcpu();
  pin_to({cpu < 0 ? allowed_cpus().front() : cpu});
  start(cpu < 0 ? allowed_cpus().front() : cpu, false);
}

SpeedProbe::SpeedProbe(const std::vector<int>& cpus) {
  for (int c : cpus) start(c, true);
}

void SpeedProbe::start(int cpu, bool idle) {
  auto* p = new Probe;
  probes_.push_back(p);
  p->thread = std::thread([p, cpu, idle] {
    const cpu_set_t set = cpu_set({cpu});
    sched_param none{};
    // Beside a busy thread the probe runs at nice 10: CFS then gives it
    // about a tenth of the core, still in slices a few milliseconds apart.
    if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0 ||
        (idle ? pthread_setschedparam(pthread_self(), SCHED_IDLE, &none)
              : setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 10)) != 0 ||
        pthread_getcpuclockid(pthread_self(), &p->clock) != 0) {
      p->started.store(-1);
      return;
    }
    std::vector<double> a(kN * kN, 1.0001), b(kN * kN, 0.9999), c(kN * kN, 0.0);
    p->started.store(1);
    while (!p->stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kN; ++i)
        for (int k = 0; k < kN; ++k) {
          const double x = a[i * kN + k];
          for (int j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
        }
      c[0] *= 0.5;
      p->units.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (p->started.load() == 0) std::this_thread::yield();
  if (p->started.load() < 0) throw gs::Error("cannot place a speed probe");
}

SpeedProbe::~SpeedProbe() {
  for (Probe* p : probes_) {
    p->stop.store(true);
    p->thread.join();
    delete p;
  }
}

SpeedProbe::Mark SpeedProbe::mark() const {
  Mark m;
  m.self_cpu_s = clock_s(CLOCK_THREAD_CPUTIME_ID);
  for (const Probe* p : probes_) {
    m.units.push_back(
        static_cast<double>(p->units.load(std::memory_order_relaxed)));
    m.probe_cpu_s.push_back(clock_s(p->clock));
  }
  return m;
}

double SpeedProbe::speed(const Mark& a, const Mark& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    const double cpu_s = b.probe_cpu_s[i] - a.probe_cpu_s[i];
    if (!(cpu_s > 0.0) || b.units[i] <= a.units[i])
      throw gs::Error("the speed probe got no CPU time between two marks");
    sum += (b.units[i] - a.units[i]) / cpu_s;
  }
  return sum / static_cast<double>(a.units.size()) / kRefUnitsPerS;
}

void RunResult::fail_check(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

}  // namespace perfbench
