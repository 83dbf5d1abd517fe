// The traced run: per-layer metrics measured from outside by timing
// calls into each module's public functions, plus what the program's own
// obs registry records, and a self-time table of the run's spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "gang/solver.hpp"
#include "gangd.hpp"
#include "obs/obs.hpp"

namespace perfbench {

/// Self time per span name over one traced region, with an explicit
/// `unattributed` row: the rows sum to `total_ms`, the region's wall
/// time multiplied by the number of threads that recorded spans.
struct SelfTimeTable {
  std::map<std::string, double> self_ms;
  double total_ms = 0.0;
  double unattributed_ms = 0.0;
};

SelfTimeTable self_time(const std::vector<gs::obs::TraceEvent>& events,
                        double wall_ms);

/// Print the table (stdout, before the result line).
void print_self_time(const std::string& title, const SelfTimeTable& t);

/// One scenario for the stage replay: the system and its cold solve.
struct ProbeScenario {
  gs::gang::SystemParams sys;
  gs::gang::SolveReport report;
  double solve_ms = 0.0;
};

/// Solver-layer metrics over `scenarios` (gang.*, qbd.*, phase.*): the
/// cold solves' times and iterations, warm solves seeded from the
/// previous scenario of the same structure, and a replay of one
/// fixed-point iteration at each scenario's final slices.
void solver_layers(const std::vector<ProbeScenario>& scenarios,
                   RunResult& out);

/// Lock-step batch shares from the program's obs registry and the
/// self-time table of a traced region whose sweeps took `sweep_ms`.
void batch_layers(const gs::obs::Snapshot& snap, const SelfTimeTable& t,
                  double sweep_ms, RunResult& out);

/// The in-process replay of the gangd mix through EvalService::handle_line,
/// once untraced and once traced.
struct Replay {
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  double sweep_ms = 0.0;  ///< traced time inside sweep requests
  SelfTimeTable table;     ///< of the traced replay
  gs::obs::Snapshot snap;  ///< obs metrics of the traced replay
  SessionReport session;   ///< the loopback daemon session
};

/// Service-layer metrics (serve.*, json.*, net.*, gangd.*) on the gangd
/// mix of `opts`: an in-process replay and probes of EvalService and the
/// JSON module, then a loopback daemon session.
Replay service_layers(const MixPool& pool, const SessionOptions& opts,
                      RunResult& out);

/// The service-layer metrics (serve.*, json.*, net.*, gangd.*) of a
/// workload that never calls those layers: each reads 0.
void unused_service_layers(RunResult& out);

}  // namespace perfbench
