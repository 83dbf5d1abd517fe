// The library workloads (figures, wide-machine): cold reference solves,
// the timed passes, and the checks of every answer against the
// references and the model's properties.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "gang/solver.hpp"
#include "inputs.hpp"

namespace perfbench {

/// The benchmark's own cold, scalar solve of one scenario of a call.
struct Reference {
  gs::gang::SystemParams sys;
  bool stable = false;         ///< the fixed point (or fallback) solved
  bool heavy_traffic = false;  ///< solve call answered by the fallback
  gs::gang::SolveReport report;  ///< full report (when !heavy_traffic)
  std::vector<double> n;         ///< N_p the call answers with
  std::vector<double> n_ht;      ///< heavy-traffic bound per class
  double solve_ms = 0.0;         ///< wall time of the cold solve
};

/// One point of a call's answer.
struct Answer {
  bool ok = false;
  bool heavy_traffic = false;
  std::vector<double> n;
};

/// Calls plus the reference of every point, after the scenarios whose
/// instability verdict could not be confirmed left the workload.
struct Prepared {
  std::vector<Call> calls;
  std::vector<std::vector<Reference>> refs;  ///< refs[call][point]
  long points_per_pass = 0;
  long failed_per_pass = 0;  ///< references that did not converge
};

/// Solve every point cold and scalar, check report properties, bounds
/// and shapes, run the checker's self-test. Failures go to `out`.
Prepared prepare(std::vector<Call> calls, RunResult& out);

/// The timed operation: one call into the program.
std::vector<Answer> run_call(const Call& call);

/// Check a call's answer against its references; returns the number of
/// points that count as failed (reference did not converge).
long check_answer(const Call& call, const std::vector<Reference>& refs,
                  const std::vector<Answer>& answer, RunResult& out);

/// Timed passes of a library workload until `seconds` are used (whole
/// passes, at least one); fills the end-to-end metrics on reference-core
/// time (SpeedProbe). Throughput is the median over passes.
void run_library_timed(const Prepared& prep, double seconds, RunResult& out);

}  // namespace perfbench
