// Answer checks built from properties the model must have — never from a
// stored copy of some earlier output — plus a self-test that feeds each
// check a deliberately perturbed answer and requires it to be rejected.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "gang/params.hpp"
#include "gang/solver.hpp"

namespace perfbench {

/// Two solves of one scenario (cold vs warm start, batched vs scalar
/// dispatch, daemon vs library) agree when every N_p matches within
/// this relative tolerance. The fixed point stops once successive
/// iterates move less than GangSolveOptions::tol = 1e-6; with a
/// contraction factor up to 0.99 the distance to the limit is then at
/// most 100 * tol, which sets the bound.
constexpr double kAgreeRel = 1e-4;

/// One named property of a full solve report. Returns "" when it holds,
/// otherwise a description of the violation.
struct ReportCheck {
  const char* name;
  std::string (*run)(const gs::gang::SystemParams&,
                     const gs::gang::SolveReport&);
};

/// Every report property: serving + overhead time shares sum to 1, the
/// arrival decomposition matches the queue distribution (PASTA), and
/// serving_fraction_p >= rho_p with equality for single-partition classes.
const std::vector<ReportCheck>& report_checks();

/// The options of the benchmark's own reference solves: the defaults,
/// plus enough queue-length levels for the arrival-decomposition check.
gs::gang::GangSolveOptions reference_options(const gs::gang::SystemParams& sys);

/// Run every report check on a report solved with reference_options;
/// "" or the first violation.
std::string check_report(const gs::gang::SystemParams& sys,
                         const gs::gang::SolveReport& rep);

/// Queue levels that hold all but a negligible share of every class's
/// N_p, judged from the report's spectral radii.
std::size_t mean_check_levels(const gs::gang::SystemParams& sys,
                              const gs::gang::SolveReport& rep);

/// Little's law T_p = N_p / lambda_p is how the solver defines T_p, so
/// it cannot fail; what can is N_p itself. Solve `sys` again with
/// mean_check_levels queue levels, require every N_p of `rep` to equal
/// sum_n n P(N_p = n) over that distribution, and require the check to
/// reject a copy with one N_p moved. "" or what failed.
std::string check_mean_jobs(const gs::gang::SystemParams& sys,
                            const gs::gang::SolveReport& rep);

/// lambda_p/mu_p < N_p <= N_p under solve_class_heavy_traffic (`n_ht`).
std::string check_bounds(const gs::gang::SystemParams& sys, std::size_t p,
                         double n, double n_ht);

/// `ys` strictly monotone: direction -1 falls, +1 rises.
std::string check_monotone(const std::vector<double>& ys, int direction,
                           const std::string& what);

/// Every entry of `got` within kAgreeRel of `want`.
std::string check_agree(const std::vector<double>& got,
                        const std::vector<double>& want);

/// An instability verdict is confirmed when the offered load cannot fit
/// in the share of the cycle left after switch overheads:
/// sum rho_p >= sum E[G_p] / (sum E[G_p] + sum E[C_p]).
bool instability_confirmed(const gs::gang::SystemParams& sys);

/// Feed every check above a perturbed copy of a good answer (`rep` for
/// `sys`, with heavy-traffic bounds `n_ht`) and require each to reject
/// it — and the unperturbed answer to pass. Returns "" or what failed.
std::string self_test(const gs::gang::SystemParams& sys,
                      const gs::gang::SolveReport& rep,
                      const std::vector<double>& n_ht);

}  // namespace perfbench
