#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using gs::gang::SolveReport;
using gs::gang::SystemParams;

namespace {

// Probabilities and time shares come out of normalized stationary
// vectors, so they sum to 1 up to the truncated tail mass
// (TruncationOptions::tail_eps = 1e-12) plus rounding.
constexpr double kProbTol = 1e-8;
// serving_fraction_p and E[C_p]/E[Z] come from L different chains that
// only agree at the fixed point, so their sum carries the fixed-point
// residual as well; the same 100 * tol argument as kAgreeRel applies.
constexpr double kCycleTol = 1e-4;
// N_p against sum_n n P(N_p = n): the same stationary vector read two
// ways (closed-form moments against summed level masses), so only
// rounding and the uncounted tail (below 1e-12 of N_p) separate them.
constexpr double kMeanTol = 1e-8;

std::string fmt(const char* f, double a, double b, std::size_t p) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, p, a, b);
  return buf;
}

std::string cycle_shares(const SystemParams& sys, const SolveReport& rep) {
  double sum = 0.0;
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    sum += rep.per_class[p].serving_fraction +
           sys.cls(p).overhead.mean() / rep.mean_cycle_length;
  }
  if (std::abs(sum - 1.0) > kCycleTol)
    return fmt("the serving and overhead shares of %zu classes sum to %.9g",
               sum, 0.0, sys.num_classes());
  return "";
}

// Poisson arrivals see time averages (PASTA), so a class-p arrival finds
// all c_p = partitions(p) partitions taken with probability
// P(N_p >= c_p) = 1 - sum_{n<c_p} P(N_p = n). The solver weighs each state
// by its arrival flow for the decomposition and sums level masses for the
// queue distribution; the two agree only if both, and the normalization
// of the stationary vector, are right. Classes with non-Poisson arrivals
// are skipped (every workload's arrivals are Poisson).
std::string arrival_decomposition(const SystemParams& sys,
                                  const SolveReport& rep) {
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    if (sys.cls(p).arrival.order() != 1) continue;
    const auto& c = rep.per_class[p];
    const std::size_t parts = sys.partitions(p);
    if (c.queue_dist.size() < parts)
      return fmt("class %zu: the report holds %.0f queue levels, %.0f needed",
                 static_cast<double>(c.queue_dist.size()),
                 static_cast<double>(parts), p);
    double below = 0.0;
    for (std::size_t n = 0; n < parts; ++n) below += c.queue_dist[n];
    if (std::abs(c.arrive_queued - (1.0 - below)) > kProbTol)
      return fmt("class %zu: arrivals find every partition taken with "
                 "probability %.12g, but P(N >= partitions) = %.12g",
                 c.arrive_queued, 1.0 - below, p);
    if (std::abs(c.arrive_immediate + c.arrive_wait_slice - below) > kProbTol)
      return fmt("class %zu: arrivals find a free partition with "
                 "probability %.12g, but P(N < partitions) = %.12g",
                 c.arrive_immediate + c.arrive_wait_slice, below, p);
  }
  return "";
}

std::string serving_lower_bound(const SystemParams& sys,
                                const SolveReport& rep) {
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    const double rho = sys.class_utilization(p);
    const double s = rep.per_class[p].serving_fraction;
    if (sys.partitions(p) == 1) {
      // One partition: the class holds the machine exactly while a job
      // runs, so its serving share is its utilization.
      if (std::abs(s - rho) > kCycleTol * std::max(rho, 1e-3))
        return fmt("class %zu has one partition but serving share %.9g != "
                   "rho %.9g",
                   s, rho, p);
    } else if (s < rho * (1.0 - kProbTol)) {
      return fmt("class %zu serving share %.9g below rho %.9g", s, rho, p);
    }
  }
  return "";
}

}  // namespace

const std::vector<ReportCheck>& report_checks() {
  static const std::vector<ReportCheck> checks = {
      {"cycle_shares", cycle_shares},
      {"arrival_decomposition", arrival_decomposition},
      {"serving_lower_bound", serving_lower_bound},
  };
  return checks;
}

gs::gang::GangSolveOptions reference_options(const SystemParams& sys) {
  gs::gang::GangSolveOptions opts;
  for (std::size_t p = 0; p < sys.num_classes(); ++p)
    opts.queue_dist_levels = std::max(opts.queue_dist_levels, sys.partitions(p));
  return opts;
}

std::string check_report(const SystemParams& sys, const SolveReport& rep) {
  if (rep.per_class.size() != sys.num_classes())
    return "report has the wrong number of classes";
  for (const auto& c : report_checks()) {
    std::string why = c.run(sys, rep);
    if (!why.empty()) return std::string(c.name) + ": " + why;
  }
  return "";
}

std::size_t mean_check_levels(const SystemParams& sys,
                              const SolveReport& rep) {
  // Beyond the boundary the level masses fall geometrically at the rate
  // of R's spectral radius eta, so past c_p + k levels the tail holds
  // about eta^k / (1 - eta)^2 of the mean; k makes that below 1e-12.
  std::size_t levels = 0;
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    const double eta = std::clamp(rep.per_class[p].sp_r, 1e-3, 1.0 - 1e-9);
    const double k =
        std::log(1e-12 * (1.0 - eta) * (1.0 - eta)) / std::log(eta);
    levels = std::max(levels, sys.partitions(p) +
                                  static_cast<std::size_t>(std::ceil(k)) + 1);
  }
  return levels;
}

namespace {

std::string mean_vs_distribution(const SolveReport& rep) {
  for (std::size_t p = 0; p < rep.per_class.size(); ++p) {
    const auto& c = rep.per_class[p];
    double mass = 0.0, mean = 0.0;
    for (std::size_t n = 0; n < c.queue_dist.size(); ++n) {
      mass += c.queue_dist[n];
      mean += static_cast<double>(n) * c.queue_dist[n];
    }
    if (std::abs(mass - 1.0) > kProbTol)
      return fmt("class %zu: the queue distribution holds mass %.12g (of "
                 "%.0f levels)",
                 mass, static_cast<double>(c.queue_dist.size()), p);
    if (std::abs(mean - c.mean_jobs) > kMeanTol * std::max(1.0, c.mean_jobs))
      return fmt("class %zu: N = %.12g but sum n P(N = n) = %.12g",
                 c.mean_jobs, mean, p);
  }
  return "";
}

}  // namespace

std::string check_mean_jobs(const SystemParams& sys, const SolveReport& rep) {
  gs::gang::GangSolveOptions opts;
  opts.queue_dist_levels = mean_check_levels(sys, rep);
  SolveReport full = gs::gang::GangSolver(sys, opts).solve();
  // The queue levels are read off the same final iterate, so the
  // reference's N_p must be their mean.
  for (std::size_t p = 0; p < sys.num_classes(); ++p)
    full.per_class[p].mean_jobs = rep.per_class[p].mean_jobs;
  if (std::string why = mean_vs_distribution(full); !why.empty())
    return why;
  auto& moved = full.per_class.back().mean_jobs;
  moved += 10.0 * kMeanTol * std::max(1.0, moved);
  if (mean_vs_distribution(full).empty())
    return "self-test: accepted an N_p moved by 10x its tolerance";
  return "";
}

std::string check_bounds(const SystemParams& sys, std::size_t p, double n,
                         double n_ht) {
  const double in_service =
      sys.cls(p).arrival_rate() / sys.cls(p).service_rate();
  if (!(n > in_service))
    return fmt("class %zu: N = %.9g not above lambda/mu = %.9g", n,
               in_service, p);
  if (!(n <= n_ht * (1.0 + 1e-9)))
    return fmt("class %zu: N = %.9g above its heavy-traffic bound %.9g", n,
               n_ht, p);
  return "";
}

std::string check_monotone(const std::vector<double>& ys, int direction,
                           const std::string& what) {
  for (std::size_t i = 1; i < ys.size(); ++i) {
    const double step = (ys[i] - ys[i - 1]) * direction;
    if (!(step > 0.0))
      return what + ": not " + (direction < 0 ? "falling" : "rising") +
             " at point " + std::to_string(i);
  }
  return "";
}

std::string check_agree(const std::vector<double>& got,
                        const std::vector<double>& want) {
  if (got.size() != want.size()) return "class count differs";
  for (std::size_t p = 0; p < got.size(); ++p) {
    if (!(std::abs(got[p] - want[p]) <=
          kAgreeRel * std::max(1.0, std::abs(want[p]))))
      return fmt("class %zu: N = %.12g but the cold library solve gives %.12g",
                 got[p], want[p], p);
  }
  return "";
}

bool instability_confirmed(const SystemParams& sys) {
  double g = 0.0;
  double c = 0.0;
  for (const auto& cls : sys.classes()) {
    g += cls.quantum.mean();
    c += cls.overhead.mean();
  }
  return sys.total_utilization() >= g / (g + c);
}

std::string self_test(const SystemParams& sys, const SolveReport& rep,
                      const std::vector<double>& n_ht) {
  const std::size_t L = sys.num_classes();
  if (std::string why = check_report(sys, rep); !why.empty())
    return "the unperturbed answer fails " + why;
  std::vector<double> n(L);
  for (std::size_t p = 0; p < L; ++p) {
    n[p] = rep.per_class[p].mean_jobs;
    if (std::string why = check_bounds(sys, p, n[p], n_ht[p]); !why.empty())
      return "the unperturbed answer fails bounds: " + why;
  }

  std::size_t multi = L, single = L;
  for (std::size_t p = 0; p < L; ++p) {
    (sys.partitions(p) == 1 ? single : multi) = p;
  }
  // One perturbation per report check, each aimed at that property.
  const auto perturb = [&](const char* name, SolveReport& r) {
    const std::string s = name;
    if (s == "cycle_shares") r.mean_cycle_length *= 0.9;
    if (s == "arrival_decomposition") {
      // Mass moved between outcomes: the decomposition still sums to 1.
      r.per_class[0].arrive_queued += 1e-3;
      r.per_class[0].arrive_immediate -= 1e-3;
    }
    if (s == "serving_lower_bound") {
      const std::size_t p = multi < L ? multi : single;
      r.per_class[p].serving_fraction = 0.99 * sys.class_utilization(p);
    }
  };
  for (const auto& c : report_checks()) {
    SolveReport bad = rep;
    perturb(c.name, bad);
    if (c.run(sys, bad).empty())
      return std::string("check ") + c.name + " accepted a perturbed answer";
  }
  if (single < L) {
    SolveReport bad = rep;
    bad.per_class[single].serving_fraction *= 1.01;
    if (serving_lower_bound(sys, bad).empty())
      return "single-partition equality accepted a perturbed serving share";
  }

  const double in_service = sys.cls(0).arrival_rate() / sys.cls(0).service_rate();
  if (check_bounds(sys, 0, 0.99 * in_service, n_ht[0]).empty())
    return "bounds accepted N below lambda/mu";
  if (check_bounds(sys, 0, 1.01 * n_ht[0], n_ht[0]).empty())
    return "bounds accepted N above the heavy-traffic bound";

  if (!check_monotone({3.0, 2.0, 1.0}, -1, "probe").empty() ||
      check_monotone({3.0, 2.0, 2.5}, -1, "probe").empty() ||
      check_monotone({1.0, 3.0, 2.0}, +1, "probe").empty())
    return "monotone check misjudged a probe series";

  if (!check_agree(n, n).empty()) return "agreement rejected equal answers";
  std::vector<double> off = n;
  off[0] += 10.0 * kAgreeRel * std::max(1.0, off[0]);
  if (check_agree(off, n).empty())
    return "agreement accepted an answer off by 10x its tolerance";

  // `sys` solved, so its load fits the cycle: claiming it unstable must
  // not be confirmed.
  if (instability_confirmed(sys))
    return "instability confirmed for a scenario that solved";
  return "";
}

}  // namespace perfbench
