// perfbench: the repository benchmark. Runs one workload for a given
// time, checks every answer, and prints one JSON result line:
//
//   perfbench --workload figures|wide-machine|gangd --seed N
//             --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (plus a self-time table). See README.md beside this file.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "gangd.hpp"
#include "inputs.hpp"
#include "json/json.hpp"
#include "library.hpp"
#include "obs/obs.hpp"
#include "traced.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "workload/paper_configs.hpp"
#include "workload/sweep.hpp"

extern char** environ;

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

const std::vector<std::string> kWorkloads = {"figures", "wide-machine",
                                             "gangd"};
constexpr int kSetupSpawns = 41;

/// A fresh process's time to its first answer: spawn this binary (`exe`)
/// in --setup-probe mode and wait for it.
double setup_probe_s(const std::string& exe, const std::string& workload,
                     const std::string& seed) {
  std::vector<std::string> args = {exe,    "--workload",    workload, "--seed",
                                   seed,   "--setup-probe", "1"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const auto t0 = Clock::now();
  pid_t pid = -1;
  if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(), environ) != 0)
    throw gs::Error("cannot spawn the set-up probe");
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const double s = ms_since(t0) / 1000.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw gs::Error("the set-up probe failed");
  return s;
}

/// The set-up probe's work: the first answer of a fresh process, on a
/// fixed scenario of the workload (independent of the seed, so set-up
/// time compares across seeds).
void first_answer(const std::string& workload) {
  if (workload == "figures") {
    gs::gang::GangSolver(gs::workload::paper_system()).solve();
  } else {
    gs::gang::GangSolver(wide_system(32, 1.2)).solve();
  }
}

std::vector<Call> library_calls(const std::string& workload,
                                std::uint64_t seed) {
  return workload == "figures" ? figures_calls(seed) : wide_machine_calls(seed);
}

void run_library(const std::string& exe, const std::string& workload,
                 std::uint64_t seed, const std::string& seed_text,
                 double seconds, RunResult& out) {
  std::vector<double> setup;
  for (int i = 0; i < kSetupSpawns; ++i)
    setup.push_back(setup_probe_s(exe, workload, seed_text));
  const Prepared prep = prepare(library_calls(workload, seed), out);
  run_library_timed(prep, seconds, out);
  out.set("setup_s", median(setup), "s");
}

/// One pass over the calls; returns its wall time and adds the time
/// spent in sweep calls to `sweep_ms`.
double library_pass(const Prepared& prep, double& sweep_ms,
                    RunResult& out) {
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < prep.calls.size(); ++c) {
    const Call& call = prep.calls[c];
    const auto c0 = Clock::now();
    std::vector<Answer> answer;
    {
      gs::obs::Span span(call.sweep ? "perfbench.sweep" : "perfbench.solve");
      answer = run_call(call);
    }
    if (call.sweep) sweep_ms += ms_since(c0);
    out.failed += check_answer(call, prep.refs[c], answer, out);
  }
  out.attempted += prep.points_per_pass;
  return ms_since(t0);
}

void trace_library(const std::string& workload, std::uint64_t seed,
                   RunResult& out) {
  const Prepared prep = prepare(library_calls(workload, seed), out);

  double sweep_ms = 0.0, traced_sweep_ms = 0.0;
  const double untraced_ms = library_pass(prep, sweep_ms, out);
  gs::obs::configure({true, true});
  gs::obs::reset();
  const double traced_ms = library_pass(prep, traced_sweep_ms, out);
  const gs::obs::Snapshot snap = gs::obs::snapshot();
  const SelfTimeTable table = self_time(gs::obs::trace_events(), traced_ms);
  gs::obs::configure({});
  gs::obs::reset();

  double sweep_points = 0.0, scalar_ms = 0.0;
  std::vector<ProbeScenario> probes;
  for (std::size_t c = 0; c < prep.calls.size(); ++c) {
    for (const Reference& r : prep.refs[c]) {
      if (prep.calls[c].sweep) {
        sweep_points += 1.0;
        scalar_ms += r.solve_ms;
      }
      if (r.stable && !r.heavy_traffic && r.report.converged)
        probes.push_back({r.sys, r.report, r.solve_ms});
    }
  }
  out.set("workload.sweep_ms_per_point", sweep_ms / sweep_points, "ms");
  out.set("workload.batch_vs_scalar", sweep_ms / scalar_ms, "ratio");
  batch_layers(snap, table, traced_sweep_ms, out);
  solver_layers(probes, out);
  unused_service_layers(out);
  out.set("trace.overhead_ms", traced_ms - untraced_ms, "ms");
  out.set("trace.unattributed_share", table.unattributed_ms / table.total_ms,
          "share");
  print_self_time(workload + " (one traced pass)", table);
}

void run_gangd(const SessionOptions& opts, RunResult& out) {
  const SessionReport s = run_session(gangd_pool(), opts, out);
  out.attempted += s.requests;
  out.failed += s.unconverged;
  // Throughput is what the daemon does: scenarios per second of its CPU
  // time on a reference core (the offered rate would only echo the load).
  out.set("points_per_s",
          static_cast<double>(s.scenarios) / (s.daemon_cpu_s * s.speed), "1/s");
  out.set("solve_ms_p50", median(s.solve_ms) * s.speed, "ms");
  out.set("peak_rss_mb", s.daemon_rss_mb, "MB");
  out.set("setup_s", median(s.setup_s), "s");
}

void trace_gangd(const SessionOptions& opts, RunResult& out) {
  const MixPool pool = gangd_pool();
  const Replay replay = service_layers(pool, opts, out);
  out.attempted += replay.session.requests;
  out.failed += replay.session.unconverged;

  // The sweep requests' scenarios through workload::sweep as the service
  // runs them (warm-chained), against the same points solved one by one.
  std::vector<ProbeScenario> probes;
  for (const auto& s : pool.working_set) {
    const auto t0 = Clock::now();
    auto rep = gs::gang::GangSolver(s).solve();
    probes.push_back({s, std::move(rep), ms_since(t0)});
  }
  double sweep_ms = 0.0, scalar_ms = 0.0, points = 0.0;
  gs::workload::SweepOptions sweep_opts;
  sweep_opts.warm_chain = true;
  const std::vector<double> xs = {0.5, 0.7, 0.9, 1.1};
  for (const auto& base : pool.sweep_bases) {
    const auto make = [&base](double x) {
      auto classes = base.classes();
      for (auto& c : classes) c.quantum = c.quantum.scaled(x / c.quantum.mean());
      return gs::gang::SystemParams(base.processors(), std::move(classes));
    };
    const auto t0 = Clock::now();
    const auto pts = gs::workload::sweep(xs, make, sweep_opts);
    sweep_ms += ms_since(t0);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto sys = make(xs[i]);
      const auto s0 = Clock::now();
      auto rep = gs::gang::GangSolver(sys).solve();
      const double ms = ms_since(s0);
      scalar_ms += ms;
      points += 1.0;
      if (!pts[i].error.empty()) out.fail_check("gangd sweep point failed in-process");
      probes.push_back({sys, std::move(rep), ms});
    }
  }
  out.set("workload.sweep_ms_per_point", sweep_ms / points, "ms");
  out.set("workload.batch_vs_scalar", sweep_ms / scalar_ms, "ratio");
  batch_layers(replay.snap, replay.table, replay.sweep_ms, out);
  solver_layers(probes, out);
  out.set("trace.overhead_ms", replay.traced_ms - replay.untraced_ms, "ms");
  out.set("trace.unattributed_share",
          replay.table.unattributed_ms / replay.table.total_ms, "share");
  print_self_time("gangd (in-process replay of the mix)", replay.table);
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Cli cli("perfbench",
                    "repository benchmark: run one workload, check every "
                    "answer, print one JSON result line");
  cli.add_flag("workload", "", "figures, wide-machine or gangd");
  cli.add_flag("seed", "1", "workload seed (inputs are a function of it)");
  cli.add_flag("seconds", "10", "how long the run measures");
  cli.add_flag("trace", "0",
               "0: end-to-end metrics; 1: per-layer metrics (traced run)");
  cli.add_flag("setup-probe", "0",
               "1: answer one fixed scenario and exit (how set-up time is "
               "measured in a fresh process)");
  if (!cli.parse(argc, argv)) return 2;

  try {
    const std::string workload = cli.get_string("workload");
    if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
        kWorkloads.end()) {
      std::string msg = "perfbench: unknown workload '" + workload + "'";
      if (const auto hint = gs::util::did_you_mean(workload, kWorkloads))
        msg += " (did you mean '" + *hint + "'?)";
      std::fprintf(stderr, "%s; choose figures, wide-machine or gangd\n",
                   msg.c_str());
      return 2;
    }
    const std::string seed_text = cli.get_string("seed");
    const auto seed = static_cast<std::uint64_t>(std::stoull(seed_text));
    const double seconds = cli.get_double("seconds");
    const int trace = cli.get_int("trace");
    if (!(seconds > 0.0) || (trace != 0 && trace != 1)) {
      std::fprintf(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1\n");
      return 2;
    }
    if (cli.get_bool("setup-probe")) {
      first_answer(workload);
      return 0;
    }

    // The build directory holds this binary, gangd, and the run's scratch.
    const fs::path exe = fs::absolute(argv[0]);
    const fs::path work =
        exe.parent_path() / ("run-" + std::to_string(::getpid()));
    fs::create_directories(work);
    SessionOptions session;
    session.gangd = (exe.parent_path() / "gangd").string();
    session.work_dir = work.string();
    session.seed = seed;
    session.seconds = seconds;
    session.traced = trace == 1;

    RunResult out;
    if (workload == "gangd") {
      (trace ? trace_gangd : run_gangd)(session, out);
    } else if (trace) {
      trace_library(workload, seed, out);
    } else {
      run_library(exe.string(), workload, seed, seed_text, seconds, out);
    }
    fs::remove_all(work);

    gs::json::Json metrics = gs::json::Json::object();
    for (const auto& [name, vu] : out.metrics) {
      gs::json::Json m = gs::json::Json::object();
      m.set("value", vu.first);
      m.set("unit", vu.second);
      metrics.set(name, std::move(m));
    }
    gs::json::Json result = gs::json::Json::object();
    result.set("correct", out.correct);
    result.set("attempted", static_cast<std::int64_t>(out.attempted));
    result.set("failed", static_cast<std::int64_t>(out.failed));
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
