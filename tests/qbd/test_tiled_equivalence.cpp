// The tiled-GEMM toggle must be invisible in the numbers, exactly like
// the sparse toggle: with and without RSolveOptions::tiled the
// log-reduction solver must produce bitwise-identical results. Cyclic reduction is a *different*
// algorithm — its own rounding path — so it is cross-checked against the
// other two backends at tolerance, not bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"
#include "util/error.hpp"

namespace {

using namespace gs::qbd;
using gs::linalg::Matrix;
using gs::linalg::max_abs_diff;

void expect_r_identical(const RSolveResult& a, const RSolveResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.residual, b.residual);
  EXPECT_EQ(max_abs_diff(a.r, b.r), 0.0);
  if (a.g.rows() > 0 || b.g.rows() > 0)
    EXPECT_EQ(max_abs_diff(a.g, b.g), 0.0);
}

void expect_solutions_identical(const QbdSolution& a, const QbdSolution& b) {
  EXPECT_EQ(a.spectral_radius_r(), b.spectral_radius_r());
  EXPECT_EQ(max_abs_diff(a.r(), b.r()), 0.0);
  EXPECT_EQ(a.mean_level(), b.mean_level());
  EXPECT_EQ(a.second_moment_level(), b.second_moment_level());
}

void check_process(const QbdProcess& proc, const std::string& name) {
  SCOPED_TRACE(name);
  RSolveOptions tiled_on;
  tiled_on.tiled = true;
  RSolveOptions tiled_off;
  tiled_off.tiled = false;

  const Matrix& a0 = proc.blocks().a0;
  const Matrix& a1 = proc.blocks().a1;
  const Matrix& a2 = proc.blocks().a2;

  Workspace ws_on, ws_off;
  expect_r_identical(solve_r_logreduction(a0, a1, a2, tiled_on, &ws_on),
                     solve_r_logreduction(a0, a1, a2, tiled_off, &ws_off));

  SolveOptions on;
  on.r_options = tiled_on;
  SolveOptions off;
  off.r_options = tiled_off;
  expect_solutions_identical(solve(proc, on), solve(proc, off));
}

TEST(TiledEquivalence, Mm1) {
  check_process(gs::qbd::testing::mm1(0.6, 1.0), "mm1");
}

TEST(TiledEquivalence, Mmc) {
  check_process(gs::qbd::testing::mmc(2.1, 1.0, 3), "mmc");
}

TEST(TiledEquivalence, Me21) {
  check_process(gs::qbd::testing::me21(0.7, 1.0), "me21");
}

// A d-phase positive-recurrent family, so the tiled kernels see d > 2
// tiles with edges.
QbdBlocks make_blocks(std::size_t d, double lambda, double mu) {
  QbdBlocks b;
  b.a0.assign_zero(d, d);
  b.a1.assign_zero(d, d);
  b.a2.assign_zero(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    b.a0(i, i) = lambda;
    b.a2(i, i) = mu;
    b.a1(i, i) = -(lambda + mu) - (i + 1 < d ? 1.0 : 0.0);
    if (i + 1 < d) b.a1(i, i + 1) = 1.0;
  }
  return b;
}

TEST(TiledEquivalence, MultiPhaseChainsWithTileEdges) {
  const std::size_t d = 11;  // not a multiple of either tile dimension
  RSolveOptions tiled_on;
  tiled_on.tiled = true;
  RSolveOptions tiled_off;
  tiled_off.tiled = false;
  for (int k = 0; k < 8; ++k) {
    const double lambda = 0.2 + 0.1 * k;
    SCOPED_TRACE("lambda=" + std::to_string(lambda));
    const QbdBlocks blk = make_blocks(d, lambda, 1.1);
    expect_r_identical(
        solve_r_logreduction(blk.a0, blk.a1, blk.a2, tiled_on),
        solve_r_logreduction(blk.a0, blk.a1, blk.a2, tiled_off));
  }
}

void check_cyclic_reduction(const QbdProcess& proc, const std::string& name) {
  SCOPED_TRACE(name);
  const Matrix& a0 = proc.blocks().a0;
  const Matrix& a1 = proc.blocks().a1;
  const Matrix& a2 = proc.blocks().a2;

  const RSolveResult cr = solve_r_cyclic_reduction(a0, a1, a2);
  const RSolveResult lr = solve_r_logreduction(a0, a1, a2);
  const RSolveResult ss = solve_r_substitution(a0, a1, a2);

  // Three independent algorithms, one minimal nonnegative solution.
  EXPECT_LT(max_abs_diff(cr.r, lr.r), 1e-9);
  EXPECT_LT(max_abs_diff(cr.r, ss.r), 1e-8);
  EXPECT_LT(max_abs_diff(cr.g, lr.g), 1e-9);
  EXPECT_LT(cr.residual, 1e-10);
  EXPECT_GT(cr.iterations, 0);

  // The tiled toggle is bitwise-invisible for CR exactly as for the
  // others (same grouped-vs-plain product argument).
  RSolveOptions tiled_off;
  tiled_off.tiled = false;
  Workspace ws;
  const RSolveResult cr_off =
      solve_r_cyclic_reduction(a0, a1, a2, tiled_off, &ws);
  EXPECT_EQ(cr.iterations, cr_off.iterations);
  EXPECT_EQ(cr.residual, cr_off.residual);
  EXPECT_EQ(max_abs_diff(cr.r, cr_off.r), 0.0);
  EXPECT_EQ(max_abs_diff(cr.g, cr_off.g), 0.0);

  // End-to-end through the solve() dispatch: the stationary numbers
  // agree with the default backend at tolerance.
  SolveOptions cr_opts;
  cr_opts.r_method = RMethod::kCyclicReduction;
  const QbdSolution sol_cr = solve(proc, cr_opts);
  const QbdSolution sol_lr = solve(proc, SolveOptions{});
  EXPECT_NEAR(sol_cr.mean_level(), sol_lr.mean_level(), 1e-9);
  EXPECT_NEAR(sol_cr.spectral_radius_r(), sol_lr.spectral_radius_r(), 1e-9);
}

TEST(CyclicReduction, Mm1) {
  check_cyclic_reduction(gs::qbd::testing::mm1(0.6, 1.0), "mm1");
}

TEST(CyclicReduction, Mmc) {
  check_cyclic_reduction(gs::qbd::testing::mmc(2.1, 1.0, 3), "mmc");
}

TEST(CyclicReduction, Me21) {
  check_cyclic_reduction(gs::qbd::testing::me21(0.7, 1.0), "me21");
}

TEST(CyclicReduction, MultiPhaseChain) {
  const QbdBlocks blk = make_blocks(13, 0.5, 1.2);
  const RSolveResult cr = solve_r_cyclic_reduction(blk.a0, blk.a1, blk.a2);
  const RSolveResult lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
  EXPECT_LT(max_abs_diff(cr.r, lr.r), 1e-9);
  EXPECT_LT(cr.residual, 1e-10);
}

TEST(CyclicReduction, ExhaustionThrowsWithMethodName) {
  const QbdProcess proc = gs::qbd::testing::me21(0.7, 1.0);
  RSolveOptions opts;
  opts.max_iter = 1;
  opts.tol = 1e-300;
  try {
    solve_r_cyclic_reduction(proc.blocks().a0, proc.blocks().a1,
                             proc.blocks().a2, opts);
    FAIL() << "expected NumericalError";
  } catch (const gs::NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("cyclic reduction for R"),
              std::string::npos);
  }
}

}  // namespace
