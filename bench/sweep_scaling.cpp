// Sweep scaling: the headline artifact for the shared-pool execution
// layer. Runs a 64-point Figure 2 quantum_mean sweep (solver only, no
// simulation) warm-chained across a list of thread counts and emits
// BENCH_sweep.json with per-count throughput and parallel efficiency.
// Checked in-bench:
//   - chained rows are bitwise identical at every thread count (the
//     chaining plan is a pure function of the point count and stride),
//   - the chained sweep agrees with the cold sweep within solver
//     tolerance and spends fewer total fixed-point iterations,
//   - optionally (--min-scaling=X) that the highest thread count clears
//     X times the 1-thread throughput — skipped with a warning when the
//     host cannot run 2 lanes in parallel, because no scheduler can
//     scale a CPU-bound sweep past the cores that exist.
//
//   $ ./sweep_scaling [--out=BENCH_sweep.json] [--threads=1,2,4,8]
//                     [--min-scaling=1.3]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "gang/solver.hpp"
#include "json/json.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "workload/paper_configs.hpp"
#include "workload/sweep.hpp"

namespace {

using gs::json::Json;
using gs::workload::paper_system;
using gs::workload::PaperKnobs;
using gs::workload::sweep;
using gs::workload::SweepOptions;
using gs::workload::SweepPoint;

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAILED scaling check: " << what << "\n";
    std::exit(1);
  }
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Bitwise fingerprint of the rows: %a prints the exact bits of each
// double, so equal strings mean equal bits (what the determinism
// guarantee promises across thread counts).
std::string fingerprint(const std::vector<SweepPoint>& rows) {
  std::string out;
  char buf[64];
  for (const auto& row : rows) {
    std::snprintf(buf, sizeof(buf), "%a|", row.x);
    out += buf;
    for (const double n : row.model_n) {
      std::snprintf(buf, sizeof(buf), "%a,", n);
      out += buf;
    }
    out += row.error;
    out += ";";
  }
  return out;
}

std::int64_t total_iterations(const std::vector<SweepPoint>& rows) {
  std::int64_t total = 0;
  for (const auto& row : rows) total += row.iterations;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Cli cli("sweep_scaling",
                    "Warm-chained 64-point Figure 2 sweep throughput across "
                    "thread counts; writes BENCH_sweep.json.");
  cli.add_flag("out", "BENCH_sweep.json", "output JSON path");
  cli.add_flag("threads", "1,2,4,8", "comma-separated thread counts");
  cli.add_flag("min-scaling", "0",
               "fail when the highest thread count's speedup over 1 thread "
               "is below this (0 = no gate)");
  if (!cli.parse(argc, argv)) return 2;
  const std::string out_path = cli.get_string("out");
  const double min_scaling = cli.get_double("min-scaling");
  std::vector<int> thread_counts;
  const std::string list = cli.get_string("threads");
  for (std::size_t pos = 0; pos < list.size();) {
    const std::size_t comma = list.find(',', pos);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    thread_counts.push_back(std::atoi(list.substr(pos, end - pos).c_str()));
    pos = end + 1;
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  require(!thread_counts.empty() && thread_counts.front() >= 1,
          "--threads needs a comma-separated list of counts >= 1");
  // Counter-only metrics ride into the emitted JSON; relaxed atomic
  // updates do not move the throughput medians.
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});

  // Figure 2's system (rho = 0.4), quantum mean swept across 64 points —
  // the paper's x-axis extended past the figure's right edge so the
  // chained anchors cover slow- and fast-switching regimes alike.
  const std::size_t num_points = 64;
  std::vector<double> xs;
  for (std::size_t i = 0; i < num_points; ++i)
    xs.push_back(0.25 + 3.75 * static_cast<double>(i) /
                            static_cast<double>(num_points - 1));
  const auto make_system = [](double q) {
    PaperKnobs knobs;
    knobs.quantum_mean = q;
    return paper_system(knobs);
  };
  const double solver_tol = gs::gang::GangSolveOptions{}.tol;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::cout << "config: figure2 system, " << num_points
            << "-point quantum_mean sweep, hardware_concurrency " << hw
            << "\n";

  // --- Cold reference (1 thread, no chaining): the iteration baseline. ---
  SweepOptions cold_opts;
  cold_opts.num_threads = 1;
  cold_opts.warm_chain = false;
  const auto t_cold = std::chrono::steady_clock::now();
  const std::vector<SweepPoint> cold_rows = sweep(xs, make_system, cold_opts);
  const double cold_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t_cold)
                             .count();
  const std::int64_t cold_iters = total_iterations(cold_rows);

  // --- Chained sweep at each thread count. ---
  struct Row {
    int threads = 0;
    double ms = 0.0;
    double points_per_s = 0.0;
    double efficiency = 0.0;  ///< points_per_s / (threads * 1-thread rate)
  };
  std::vector<Row> rows;
  std::string reference_bits;
  std::vector<SweepPoint> chained_rows;
  std::int64_t chained_iters = 0;
  const int reps = 3;
  for (const int threads : thread_counts) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.warm_chain = true;
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      chained_rows = sweep(xs, make_system, opts);
      times.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    }
    const std::string bits = fingerprint(chained_rows);
    if (reference_bits.empty()) {
      reference_bits = bits;
      chained_iters = total_iterations(chained_rows);
    }
    require(bits == reference_bits,
            "chained rows must be bitwise identical at every thread count");
    Row row;
    row.threads = threads;
    row.ms = median(times);
    row.points_per_s = 1000.0 * static_cast<double>(num_points) / row.ms;
    rows.push_back(row);
  }
  for (auto& row : rows)
    row.efficiency =
        row.points_per_s / (static_cast<double>(row.threads) *
                            rows.front().points_per_s);

  // --- Chained vs cold: same fixed points, fewer iterations. ---
  require(chained_rows.size() == cold_rows.size(), "row count mismatch");
  double max_gap = 0.0;
  for (std::size_t i = 0; i < cold_rows.size(); ++i) {
    require(chained_rows[i].error == cold_rows[i].error,
            "chained sweep must reproduce the cold error rows");
    require(chained_rows[i].model_n.size() == cold_rows[i].model_n.size(),
            "class count mismatch");
    for (std::size_t p = 0; p < cold_rows[i].model_n.size(); ++p)
      max_gap = std::max(max_gap, std::abs(chained_rows[i].model_n[p] -
                                           cold_rows[i].model_n[p]));
  }
  // The solver's stopping rule bounds the iterate *step*, not the
  // distance to the fixed point: both runs stop within tol of their last
  // step, so they can sit up to ~step/(1 - contraction) apart. At this
  // sweep's slowest-contracting points (large quanta, ~60 cold
  // iterations) that constant is ~50, hence the 100x band.
  require(max_gap <= 100.0 * solver_tol,
          "chained and cold sweeps must agree within solver tolerance");
  require(chained_iters < cold_iters,
          "warm chaining must spend fewer total iterations than cold");

  // --- Optional scaling gate. ---
  const int max_threads = thread_counts.back();
  const double scaling =
      rows.back().points_per_s / rows.front().points_per_s;
  bool gate_skipped = false;
  if (min_scaling > 0.0) {
    if (hw < 2 || max_threads < 2) {
      gate_skipped = true;
      std::cerr << "WARNING: --min-scaling=" << min_scaling
                << " skipped (hardware_concurrency " << hw << ", max lanes "
                << max_threads
                << "): a CPU-bound sweep cannot scale past the cores that "
                   "exist\n";
    } else {
      require(scaling >= min_scaling,
              "scaling " + std::to_string(scaling) + "x at " +
                  std::to_string(max_threads) + " threads is below the --min-scaling=" +
                  std::to_string(min_scaling) + " gate");
    }
  }

  // --- Emit BENCH_sweep.json. ---
  Json out = Json::object();
  Json config = Json::object();
  config.set("system", "figure2");
  config.set("points", static_cast<std::int64_t>(num_points));
  config.set("reps", reps);
  config.set("hardware_concurrency", static_cast<std::int64_t>(hw));
  config.set("chain_stride",
             static_cast<std::int64_t>(SweepOptions{}.chain_stride));
  out.set("config", std::move(config));

  Json iters = Json::object();
  iters.set("cold_total", cold_iters);
  iters.set("chained_total", chained_iters);
  iters.set("saved_fraction",
            1.0 - static_cast<double>(chained_iters) /
                      static_cast<double>(cold_iters));
  iters.set("max_mean_jobs_gap", max_gap);
  iters.set("solver_tol", solver_tol);
  iters.set("cold_ms", cold_ms);
  out.set("warm_chain_vs_cold", std::move(iters));

  Json scaling_rows = Json::array();
  for (const auto& row : rows) {
    Json r = Json::object();
    r.set("threads", row.threads);
    r.set("ms", row.ms);
    r.set("points_per_s", row.points_per_s);
    r.set("efficiency", row.efficiency);
    scaling_rows.push_back(std::move(r));
  }
  out.set("chained_sweep", std::move(scaling_rows));

  Json gate = Json::object();
  gate.set("scaling_vs_1_thread", scaling);
  gate.set("min_scaling", min_scaling);
  gate.set("skipped", gate_skipped);
  out.set("scaling_gate", std::move(gate));

  {
    const gs::obs::Snapshot snap = gs::obs::snapshot();
    Json obs = Json::object();
    for (const char* name :
         {"sweep.points", "sweep.anchors", "sweep.fills",
          "sweep.warm_started", "sweep.errors", "gang.solve.count",
          "gang.solve.iterations", "gang.solve.warm_fallback",
          "qbd.arena.borrow", "qbd.arena.hit", "pool.batches",
          "pool.tasks", "pool.chunks"}) {
      obs.set(name, static_cast<std::int64_t>(snap.counter_value(name)));
    }
    out.set("obs", std::move(obs));
  }

  std::ofstream file(out_path);
  file << out.dump() << "\n";
  file.close();

  std::printf("cold sweep: %8.1f ms, %lld iterations\n", cold_ms,
              static_cast<long long>(cold_iters));
  std::printf("chained:    %lld iterations (%.0f%% saved, max |dn| %.2e)\n",
              static_cast<long long>(chained_iters),
              100.0 * (1.0 - static_cast<double>(chained_iters) /
                                 static_cast<double>(cold_iters)),
              max_gap);
  for (const auto& row : rows)
    std::printf(
        "chained x%zu @ %d threads: %8.1f ms  (%.1f points/s, "
        "efficiency %.2f)\n",
        num_points, row.threads, row.ms, row.points_per_s, row.efficiency);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
