#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "json/json.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "serve/canonical.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"

namespace perfbench {

using gs::gang::GangSolver;
using gs::json::Json;

namespace {

double us_since(Clock::time_point t0) { return 1000.0 * ms_since(t0); }

/// The complete events of a Chrome trace file written by gangd
/// --trace-out (timestamps and durations in microseconds).
std::vector<gs::obs::TraceEvent> read_trace(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const Json trace = Json::parse(text.str());
  std::vector<gs::obs::TraceEvent> events;
  for (const auto& e : trace.at("traceEvents").as_array()) {
    gs::obs::TraceEvent ev;
    ev.name = e.at("name").as_string();
    ev.tid = static_cast<std::uint32_t>(e.at("tid").as_int());
    ev.start_ns = static_cast<std::uint64_t>(1000.0 * e.at("ts").as_double());
    ev.dur_ns = static_cast<std::uint64_t>(1000.0 * e.at("dur").as_double());
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace

SelfTimeTable self_time(const std::vector<gs::obs::TraceEvent>& events,
                        double wall_ms) {
  SelfTimeTable t;
  std::map<std::uint32_t, std::vector<const gs::obs::TraceEvent*>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(&e);
  for (auto& [tid, evs] : by_tid) {
    // Parents start no later and last no shorter than their children.
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->dur_ns > b->dur_ns;
    });
    struct Open {
      const gs::obs::TraceEvent* ev;
      std::uint64_t end;
      double child_ms;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& o) {
      t.self_ms[o.ev->name] +=
          std::max(0.0, static_cast<double>(o.ev->dur_ns) / 1e6 - o.child_ms);
    };
    for (const auto* e : evs) {
      while (!stack.empty() && stack.back().end <= e->start_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty())
        stack.back().child_ms += static_cast<double>(e->dur_ns) / 1e6;
      stack.push_back({e, e->start_ns + e->dur_ns, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  t.total_ms = wall_ms * static_cast<double>(std::max<std::size_t>(1, by_tid.size()));
  double rows = 0.0;
  for (const auto& [name, ms] : t.self_ms) rows += ms;
  t.unattributed_ms = t.total_ms - rows;
  return t;
}

void print_self_time(const std::string& title, const SelfTimeTable& t) {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, ms] : t.self_ms) rows.emplace_back(ms, name);
  std::sort(rows.rbegin(), rows.rend());
  std::printf("self time: %s (total %.1f ms)\n", title.c_str(), t.total_ms);
  for (const auto& [ms, name] : rows)
    std::printf("  %-36s %12.2f ms %6.2f%%\n", name.c_str(), ms,
                100.0 * ms / t.total_ms);
  std::printf("  %-36s %12.2f ms %6.2f%%\n", "unattributed", t.unattributed_ms,
              100.0 * t.unattributed_ms / t.total_ms);
}

void solver_layers(const std::vector<ProbeScenario>& scenarios,
                   RunResult& out) {
  std::vector<double> solve_ms, away_us, build_us, r_us, bnd_us, effq_us,
      fit_us, unattributed;
  double fp_iterations = 0.0, warm_iterations = 0.0, r_iterations = 0.0,
         effq_levels = 0.0, boundary_dim = 0.0;
  std::map<std::uint64_t, const ProbeScenario*> previous;
  const gs::gang::GangSolveOptions defaults;
  for (const auto& s : scenarios) {
    const auto& rep = s.report;
    solve_ms.push_back(s.solve_ms);
    fp_iterations += rep.iterations;

    // Warm start from the previous scenario of the same structure.
    const std::uint64_t shape = gs::serve::structure_hash(s.sys, defaults);
    if (const auto it = previous.find(shape); it != previous.end())
      warm_iterations +=
          GangSolver(s.sys).solve_warm(it->second->report.final_slices).iterations;
    previous[shape] = &s;

    // One fixed-point iteration at the final slices, stage by stage.
    double away = 0.0, build = 0.0, r = 0.0, bnd = 0.0, effq = 0.0, fit = 0.0;
    for (std::size_t p = 0; p < s.sys.num_classes(); ++p) {
      auto t0 = Clock::now();
      auto f = gs::gang::away_period(s.sys, p, rep.final_slices);
      away += us_since(t0);
      t0 = Clock::now();
      gs::gang::ClassProcess proc(s.sys, p, std::move(f));
      build += us_since(t0);
      const auto& b = proc.process().blocks();
      t0 = Clock::now();
      const auto rr = gs::qbd::solve_r_logreduction(b.a0, b.a1, b.a2);
      r += us_since(t0);
      t0 = Clock::now();
      const auto sol = gs::qbd::solve_with_r(proc.process(), rr.r);
      bnd += us_since(t0);
      t0 = Clock::now();
      const auto eq = proc.effective_quantum(sol, defaults.truncation);
      effq += us_since(t0);
      t0 = Clock::now();
      const auto fitted = eq.fitted(defaults.fit_max_order);
      fit += us_since(t0);
      if (fitted.order() == 0) out.fail_check("empty effective-quantum fit");
      r_iterations += rr.iterations;
      effq_levels += static_cast<double>(eq.truncation_levels);
      boundary_dim = std::max(
          boundary_dim, static_cast<double>(proc.process().boundary_size()));
    }
    away_us.push_back(away);
    build_us.push_back(build);
    r_us.push_back(r);
    bnd_us.push_back(bnd);
    effq_us.push_back(effq);
    fit_us.push_back(fit);
    const double per_iteration_us =
        1000.0 * s.solve_ms / std::max(1, rep.iterations);
    unattributed.push_back(1.0 - (away + build + r + bnd + effq + fit) /
                                     per_iteration_us);
  }
  out.set("gang.solve_ms", median(solve_ms), "ms");
  out.set("gang.fp_iterations", fp_iterations, "count");
  out.set("gang.warm_iterations", warm_iterations, "count");
  out.set("gang.away_period_us", median(away_us), "us");
  out.set("gang.class_build_us", median(build_us), "us");
  out.set("gang.effq_us", median(effq_us), "us");
  out.set("gang.effq_levels", effq_levels, "count");
  out.set("gang.unattributed_share", median(unattributed), "share");
  out.set("qbd.rsolve_us", median(r_us), "us");
  out.set("qbd.rsolve_iterations", r_iterations, "count");
  out.set("qbd.boundary_us", median(bnd_us), "us");
  out.set("qbd.boundary_dim", boundary_dim, "count");
  out.set("phase.fit_us", median(fit_us), "us");
}

void batch_layers(const gs::obs::Snapshot& snap, const SelfTimeTable& t,
                  double sweep_ms, RunResult& out) {
  const auto self = [&t](const char* name) {
    const auto it = t.self_ms.find(name);
    return it == t.self_ms.end() ? 0.0 : it->second;
  };
  const double denom = std::max(sweep_ms, 1e-9);
  out.set("gang.batch.boundary_share", self("gang.batch.boundary") / denom, "share");
  out.set("gang.batch.effq_share", self("gang.batch.effq") / denom, "share");
  out.set("gang.batch.revalue_share", self("gang.batch.revalue") / denom, "share");
  const double flops =
      static_cast<double>(snap.counter_value("linalg.batch_gemm.flops"));
  out.set("qbd.batch.masked_share",
          static_cast<double>(snap.counter_value("qbd.batch.masked_flops")) /
              std::max(flops, 1.0),
          "share");
  out.set("gang.solve_batch.fallback",
          static_cast<double>(snap.counter_value("gang.solve_batch.fallback")),
          "count");
}

Replay service_layers(const MixPool& pool, const SessionOptions& opts,
                      RunResult& out) {
  Replay replay;
  const std::string snapshot = make_snapshot(pool);
  const std::vector<std::string> lines =
      mix_lines(pool, opts.seed, std::min(opts.seconds, 10.0), opts.rate);

  // serve.persist_load_ms: the snapshot the daemon boots from.
  std::vector<double> load_ms;
  for (int i = 0; i < 5; ++i) {
    gs::serve::EvalService svc;
    std::istringstream in(snapshot);
    const auto t0 = Clock::now();
    svc.load_cache(in);
    load_ms.push_back(ms_since(t0));
  }
  out.set("serve.persist_load_ms", median(load_ms), "ms");

  // The replay, untraced then traced, each on a freshly booted service.
  std::vector<double> miss_ms, parse_us, dump_us;
  for (const bool traced : {false, true}) {
    gs::serve::EvalService svc;
    std::istringstream in(snapshot);
    svc.load_cache(in);
    if (traced) {
      gs::obs::configure({true, true});
      gs::obs::reset();
    }
    const auto t0 = Clock::now();
    for (const auto& line : lines) {
      const bool sweep = line.find("\"op\":\"sweep\"") != std::string::npos;
      const auto r0 = Clock::now();
      std::string resp;
      {
        gs::obs::Span span(sweep ? "perfbench.sweep_request"
                                 : "perfbench.solve_request");
        resp = svc.handle_line(line);
      }
      const double ms = ms_since(r0);
      if (traced) {
        if (sweep) replay.sweep_ms += ms;
        continue;
      }
      if (!sweep && resp.find("\"cached\":false") != std::string::npos)
        miss_ms.push_back(ms);
      if (resp.find("\"error\"") != std::string::npos)
        out.fail_check("in-process replay answered an error: " + resp.substr(0, 200));
      auto p0 = Clock::now();
      Json::parse(line);
      parse_us.push_back(us_since(p0));
      const Json parsed = Json::parse(resp);
      p0 = Clock::now();
      const std::string dumped = parsed.dump();
      dump_us.push_back(us_since(p0));
      if (dumped.empty()) out.fail_check("empty JSON dump");
    }
    (traced ? replay.traced_ms : replay.untraced_ms) = ms_since(t0);
    if (traced) {
      replay.snap = gs::obs::snapshot();
      replay.table = self_time(gs::obs::trace_events(), replay.traced_ms);
      gs::obs::configure({});
      gs::obs::reset();
    }
  }
  out.set("serve.miss_ms", median(miss_ms), "ms");
  out.set("json.parse_us", median(parse_us), "us");
  out.set("json.dump_us", median(dump_us), "us");

  // serve.hit_us: repeats of the working set, answered from the cache.
  {
    gs::serve::EvalService svc;
    std::istringstream in(snapshot);
    svc.load_cache(in);
    std::vector<double> hit_us;
    for (int rep = 0; rep < 5; ++rep) {
      for (const auto& s : pool.working_set) {
        Json req = Json::object();
        req.set("op", "solve");
        req.set("system", gs::serve::params_to_json(s));
        const std::string line = req.dump();
        const auto t0 = Clock::now();
        const std::string resp = svc.handle_line(line);
        hit_us.push_back(us_since(t0));
        if (resp.find("\"cached\":true") == std::string::npos)
          out.fail_check("working-set repeat missed the cache");
      }
    }
    out.set("serve.hit_us", median(hit_us), "us");
  }

  replay.session = run_session(pool, opts, out);
  const SessionReport& s = replay.session;
  if (!s.trace_file.empty())
    print_self_time("gangd daemon, thread time over the load window",
                    self_time(read_trace(s.trace_file), 1000.0 * s.window_s));
  out.set("serve.cache_hit_share", s.cache_hit_share, "share");
  out.set("serve.warm_share", s.warm_share, "share");
  out.set("serve.coalesced", s.coalesced, "count");
  const double hit_p50 = median(s.hit_ms);
  out.set("net.transport_us", 1000.0 * hit_p50 - out.metrics["serve.hit_us"].first,
          "us");
  out.set("net.generator_late_ms",
          s.late_ms.empty() ? 0.0 : *std::max_element(s.late_ms.begin(), s.late_ms.end()),
          "ms");
  out.set("gangd.hit_ms_p50", hit_p50, "ms");
  out.set("gangd.hit_ms_p99", quantile(s.hit_ms, 0.99), "ms");
  out.set("gangd.solve_ms_p50", median(s.solve_ms), "ms");
  out.set("gangd.solve_ms_p90", quantile(s.solve_ms, 0.90), "ms");
  out.set("gangd.sweep_ms_p50", median(s.sweep_ms), "ms");
  if (!tail_supported(s.hit_ms.size(), 0.99) ||
      !tail_supported(s.solve_ms.size(), 0.90))
    std::fprintf(stderr,
                 "perfbench: too few samples for gangd tail percentiles "
                 "(%zu hits, %zu solves)\n",
                 s.hit_ms.size(), s.solve_ms.size());
  return replay;
}

void unused_service_layers(RunResult& out) {
  for (const char* name : {"serve.hit_us", "json.parse_us", "json.dump_us",
                           "net.transport_us"})
    out.set(name, 0.0, "us");
  for (const char* name :
       {"serve.miss_ms", "serve.persist_load_ms", "net.generator_late_ms",
        "gangd.hit_ms_p50", "gangd.hit_ms_p99", "gangd.solve_ms_p50",
        "gangd.solve_ms_p90", "gangd.sweep_ms_p50"})
    out.set(name, 0.0, "ms");
  out.set("serve.cache_hit_share", 0.0, "share");
  out.set("serve.warm_share", 0.0, "share");
  out.set("serve.coalesced", 0.0, "count");
}

}  // namespace perfbench
