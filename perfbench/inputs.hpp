// The library workloads' inputs: the calls each pass makes into the
// program, built from the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gang/params.hpp"

namespace perfbench {

/// Expected trend of every N_p along a call group's x axis.
enum class Shape { kNone, kFalls, kRises };

/// One call into the program. A sweep call runs workload::sweep over
/// `xs` at default SweepOptions; a solve call runs GangSolver::solve on
/// make(xs[0]) and, when the full fixed point is unstable, the favored
/// class's heavy-traffic solve — exactly what fig5_cycle_fraction does.
struct Call {
  std::string group;  ///< figure or machine the call belongs to
  bool sweep = false;
  std::vector<double> xs;
  std::function<gs::gang::SystemParams(double)> make;
  std::size_t favored = 0;  ///< solve calls: the class the figure plots
  Shape shape = Shape::kNone;
};

/// Figures 2-5 (P = 8). Inputs are the paper's; the seed only orders the
/// four figures within a pass and the Figure 5 solves within theirs.
std::vector<Call> figures_calls(std::uint64_t seed);

/// Arrival-rate sweeps of 16- and 32-processor machines with the paper's
/// four classes; the seed jitters the rate grid.
std::vector<Call> wide_machine_calls(std::uint64_t seed);

/// The paper's four classes (g = 1, 2, 4, 8; mu = 0.5:1:2:4; Erlang-2
/// quanta of mean 1; overhead mean 0.01) on `processors` processors,
/// every class arriving at `lambda`.
gs::gang::SystemParams wide_system(std::size_t processors, double lambda);

}  // namespace perfbench
