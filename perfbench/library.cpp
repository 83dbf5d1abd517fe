#include "library.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "checks.hpp"
#include "util/error.hpp"
#include "workload/sweep.hpp"

namespace perfbench {

using gs::gang::GangSolver;
using gs::gang::SystemParams;

namespace {

std::vector<double> mean_jobs(const gs::gang::SolveReport& rep) {
  std::vector<double> n;
  for (const auto& c : rep.per_class) n.push_back(c.mean_jobs);
  return n;
}

Reference solve_reference(const Call& call, double x) {
  Reference r{call.make(x), false, false, {}, {}, {}, 0.0};
  const auto t0 = Clock::now();
  try {
    r.report = GangSolver(r.sys, reference_options(r.sys)).solve();
    r.n = mean_jobs(r.report);
    r.stable = true;
  } catch (const gs::Error&) {
    if (!call.sweep) {
      try {
        r.n = {gs::gang::solve_class_heavy_traffic(r.sys, call.favored)
                   .mean_jobs};
        r.heavy_traffic = true;
        r.stable = true;
      } catch (const gs::Error&) {
      }
    }
  }
  r.solve_ms = ms_since(t0);
  return r;
}

bool converged(const Reference& r) {
  return r.stable && (r.heavy_traffic || r.report.converged);
}

/// N_p series along each group's x axis, for the shape checks; only
/// converged points take part.
void check_shapes(const Prepared& prep, RunResult& out) {
  std::map<std::string, std::vector<std::pair<double, std::vector<double>>>>
      series;
  std::map<std::string, Shape> shapes;
  for (std::size_t c = 0; c < prep.calls.size(); ++c) {
    const Call& call = prep.calls[c];
    shapes[call.group] = call.shape;
    for (std::size_t i = 0; i < call.xs.size(); ++i) {
      const Reference& r = prep.refs[c][i];
      if (!converged(r)) continue;
      std::vector<double> n = r.n;
      if (!call.sweep && !r.heavy_traffic) n = {r.n[call.favored]};
      series[call.group].emplace_back(call.xs[i], n);
    }
  }
  for (auto& [group, pts] : series) {
    if (shapes[group] == Shape::kNone) continue;
    std::sort(pts.begin(), pts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t p = 0; p < pts.front().second.size(); ++p) {
      std::vector<double> ys;
      for (const auto& pt : pts) ys.push_back(pt.second[p]);
      const int dir = shapes[group] == Shape::kFalls ? -1 : +1;
      if (auto why = check_monotone(ys, dir, group + " N_" + std::to_string(p));
          !why.empty())
        out.fail_check(why);
    }
  }
}

/// check_mean_jobs on one scenario per group: the converged one whose
/// queue distribution needs the fewest levels (the check's cost grows
/// with their square).
void check_means(const Prepared& prep, RunResult& out) {
  std::map<std::string, std::pair<std::size_t, const Reference*>> pick;
  for (std::size_t c = 0; c < prep.calls.size(); ++c) {
    for (const Reference& r : prep.refs[c]) {
      if (!converged(r) || r.heavy_traffic) continue;
      const std::size_t levels = mean_check_levels(r.sys, r.report);
      auto [it, fresh] = pick.try_emplace(prep.calls[c].group, levels, &r);
      if (!fresh && levels < it->second.first) it->second = {levels, &r};
    }
  }
  if (pick.empty()) out.fail_check("no converged scenario for the mean check");
  for (const auto& [group, choice] : pick) {
    if (auto why = check_mean_jobs(choice.second->sys, choice.second->report);
        !why.empty())
      out.fail_check(group + " mean check: " + why);
  }
}

}  // namespace

Prepared prepare(std::vector<Call> calls, RunResult& out) {
  Prepared prep;
  bool self_tested = false;
  for (auto& call : calls) {
    std::vector<double> kept_xs;
    std::vector<Reference> refs;
    for (const double x : call.xs) {
      Reference r = solve_reference(call, x);
      if (!r.stable) {
        if (!instability_confirmed(r.sys)) {
          std::fprintf(stderr,
                       "perfbench: %s x=%g left the workload: reported "
                       "unstable, which the capacity bound cannot confirm\n",
                       call.group.c_str(), x);
          continue;
        }
      } else if (converged(r)) {
        const std::size_t L = r.sys.num_classes();
        if (r.heavy_traffic) {
          if (auto why = check_bounds(r.sys, call.favored, r.n[0], r.n[0]);
              !why.empty())
            out.fail_check(call.group + ": " + why);
        } else {
          r.n_ht.assign(L, std::numeric_limits<double>::infinity());
          for (std::size_t p = 0; p < L; ++p) {
            try {
              r.n_ht[p] = gs::gang::solve_class_heavy_traffic(r.sys, p).mean_jobs;
            } catch (const gs::Error&) {
            }
            if (auto why = check_bounds(r.sys, p, r.n[p], r.n_ht[p]); !why.empty())
              out.fail_check(call.group + ": " + why);
          }
          if (auto why = check_report(r.sys, r.report); !why.empty())
            out.fail_check(call.group + ": " + why);
          if (!self_tested &&
              std::all_of(r.n_ht.begin(), r.n_ht.end(),
                          [](double b) { return std::isfinite(b); })) {
            self_tested = true;
            if (auto why = self_test(r.sys, r.report, r.n_ht); !why.empty())
              out.fail_check("checker self-test: " + why);
          }
        }
      } else {
        ++prep.failed_per_pass;
      }
      kept_xs.push_back(x);
      refs.push_back(std::move(r));
    }
    if (kept_xs.empty()) continue;
    call.xs = std::move(kept_xs);
    prep.points_per_pass += static_cast<long>(call.xs.size());
    prep.refs.push_back(std::move(refs));
    prep.calls.push_back(std::move(call));
  }
  if (!self_tested)
    out.fail_check("no converged scenario with finite bounds to self-test on");
  check_shapes(prep, out);
  check_means(prep, out);
  return prep;
}

std::vector<Answer> run_call(const Call& call) {
  std::vector<Answer> out;
  if (call.sweep) {
    for (const auto& pt : gs::workload::sweep(call.xs, call.make)) {
      Answer a;
      a.ok = pt.error.empty();
      a.n = pt.model_n;
      out.push_back(std::move(a));
    }
    return out;
  }
  const SystemParams sys = call.make(call.xs[0]);
  Answer a;
  try {
    a.n = mean_jobs(GangSolver(sys).solve());
    a.ok = true;
  } catch (const gs::Error&) {
    try {
      a.n = {gs::gang::solve_class_heavy_traffic(sys, call.favored).mean_jobs};
      a.heavy_traffic = true;
      a.ok = true;
    } catch (const gs::Error&) {
    }
  }
  out.push_back(std::move(a));
  return out;
}

long check_answer(const Call& call, const std::vector<Reference>& refs,
                  const std::vector<Answer>& answer, RunResult& out) {
  if (answer.size() != refs.size()) {
    out.fail_check(call.group + ": wrong number of points");
    return 0;
  }
  long failed = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const Reference& r = refs[i];
    const Answer& a = answer[i];
    if (!r.stable) {
      if (a.ok) out.fail_check(call.group + ": answered a confirmed-unstable point");
      continue;
    }
    if (!a.ok || a.heavy_traffic != r.heavy_traffic) {
      out.fail_check(call.group + ": answer differs in kind from the cold solve");
      continue;
    }
    if (auto why = check_agree(a.n, r.n); !why.empty())
      out.fail_check(call.group + ": " + why);
    if (!converged(r)) ++failed;
  }
  return failed;
}

void run_library_timed(const Prepared& prep, double seconds, RunResult& out) {
  // solve_ms_p50 is the latency of a one-scenario call (Figure 5's
  // solves). A sweep's points share one time, so a median over points
  // would jump whole sweeps across it; it is used only when no workload
  // call solves one scenario.
  std::vector<double> solve_ms, point_ms, pass_rate, speeds;
  const SpeedProbe probe;
  const auto start = Clock::now();
  double last_pass_ms = 0.0;
  do {
    const auto pass_start = Clock::now();
    // Calls are timed in CPU time and scaled by the core speed over the
    // whole pass: a one-scenario call is too short for the probe's few
    // slices within it to give its own speed, and core states last longer
    // than a pass.
    std::vector<double> pass_solve_ms, pass_point_ms;
    const SpeedProbe::Mark p0 = probe.mark();
    for (std::size_t c = 0; c < prep.calls.size(); ++c) {
      const double cpu0 = probe.mark().self_cpu_s;
      const std::vector<Answer> answer = run_call(prep.calls[c]);
      const double ms = 1000.0 * (probe.mark().self_cpu_s - cpu0);
      if (!prep.calls[c].sweep) pass_solve_ms.push_back(ms);
      for (std::size_t i = 0; i < answer.size(); ++i)
        pass_point_ms.push_back(ms / static_cast<double>(answer.size()));
      out.failed += check_answer(prep.calls[c], prep.refs[c], answer, out);
    }
    const SpeedProbe::Mark p1 = probe.mark();
    const double speed = SpeedProbe::speed(p0, p1);
    for (double ms : pass_solve_ms) solve_ms.push_back(ms * speed);
    for (double ms : pass_point_ms) point_ms.push_back(ms * speed);
    out.attempted += prep.points_per_pass;
    pass_rate.push_back(static_cast<double>(prep.points_per_pass) /
                        SpeedProbe::ref_s(p0, p1));
    speeds.push_back(speed);
    last_pass_ms = ms_since(pass_start);
  } while (ms_since(start) + last_pass_ms <= seconds * 1000.0);

  std::fprintf(stderr, "perfbench: %zu passes, core speed", speeds.size());
  for (double v : speeds) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, " of the reference\n");
  out.set("points_per_s", median(pass_rate), "1/s");
  out.set("solve_ms_p50", median(solve_ms.empty() ? point_ms : solve_ms), "ms");
  out.set("peak_rss_mb", self_peak_rss_mb(), "MB");
}

}  // namespace perfbench
