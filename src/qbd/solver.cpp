#include "qbd/solver.hpp"

#include <cmath>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/spectral.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::qbd {

QbdSolution::QbdSolution(std::vector<Vector> boundary_pi, Matrix r,
                         double sp_r)
    : boundary_pi_(std::move(boundary_pi)), r_(std::move(r)), sp_r_(sp_r) {
  GS_ASSERT(!boundary_pi_.empty());
  i_minus_r_inv_ = linalg::inverse(Matrix::identity(r_.rows()) - r_);
}

QbdSolution::QbdSolution(std::vector<Vector> boundary_pi, Matrix r,
                         Matrix i_minus_r_inv, double sp_r)
    : boundary_pi_(std::move(boundary_pi)),
      r_(std::move(r)),
      i_minus_r_inv_(std::move(i_minus_r_inv)),
      sp_r_(sp_r) {
  GS_ASSERT(!boundary_pi_.empty());
  GS_ASSERT(i_minus_r_inv_.rows() == r_.rows() &&
            i_minus_r_inv_.cols() == r_.cols());
}

QbdSolution::TailScan::TailScan(const QbdSolution& sol)
    : sol_(sol),
      v_(sol.boundary_pi_.back()),
      w_(sol.i_minus_r_inv_ * linalg::ones(sol.r_.rows())) {}

double QbdSolution::TailScan::next() {
  // tail_mass_sequence pushes dot(v, w) first and advances v afterwards;
  // doing the advance lazily at the top of the next call consumes the
  // exact same multiply chain, minus the final multiply the eager loop
  // also skips.
  if (first_) {
    first_ = false;
  } else {
    linalg::multiply_left_into(next_, v_, sol_.r_);
    std::swap(v_, next_);
  }
  return linalg::dot(v_, w_);
}

const Vector& QbdSolution::boundary_level(std::size_t i) const {
  GS_CHECK(i < boundary_pi_.size(), "boundary level index out of range");
  return boundary_pi_[i];
}

Vector QbdSolution::level(std::size_t i) const {
  const std::size_t b = boundary_pi_.size() - 1;
  if (i <= b) return boundary_pi_[i];
  Vector v = boundary_pi_[b];
  for (std::size_t k = b; k < i; ++k) v = v * r_;
  return v;
}

double QbdSolution::level_mass(std::size_t i) const {
  return linalg::sum(level(i));
}

double QbdSolution::mean_level() const {
  const std::size_t b = boundary_pi_.size() - 1;
  double acc = 0.0;
  for (std::size_t i = 1; i < b; ++i)
    acc += static_cast<double>(i) * linalg::sum(boundary_pi_[i]);
  const Vector& pib = boundary_pi_[b];
  const Vector ones = linalg::ones(r_.rows());
  // sum_{n>=0} (b+n) pi_b R^n e
  //   = b pi_b (I-R)^{-1} e + pi_b R (I-R)^{-2} e.
  const Vector m1 = i_minus_r_inv_ * ones;
  acc += static_cast<double>(b) * linalg::dot(pib, m1);
  const Vector m2 = i_minus_r_inv_ * m1;        // (I-R)^{-2} e
  acc += linalg::dot(pib * r_, m2);
  return acc;
}

double QbdSolution::second_moment_level() const {
  const std::size_t b = boundary_pi_.size() - 1;
  double acc = 0.0;
  for (std::size_t i = 1; i < b; ++i)
    acc += static_cast<double>(i * i) * linalg::sum(boundary_pi_[i]);
  const Vector& pib = boundary_pi_[b];
  const Vector ones = linalg::ones(r_.rows());
  const Vector m1 = i_minus_r_inv_ * ones;      // (I-R)^{-1} e
  const Vector m2 = i_minus_r_inv_ * m1;        // (I-R)^{-2} e
  const Vector m3 = i_minus_r_inv_ * m2;        // (I-R)^{-3} e
  const double bb = static_cast<double>(b);
  // sum_{n>=0} (b+n)^2 pi_b R^n e
  //   = b^2 S0 + 2b S1 + S2 with
  // S0 = pi_b (I-R)^{-1} e,
  // S1 = pi_b R (I-R)^{-2} e,
  // S2 = sum n^2 R^n = pi_b (R + R^2)(I-R)^{-3} e.
  const Vector pib_r = pib * r_;
  acc += bb * bb * linalg::dot(pib, m1);
  acc += 2.0 * bb * linalg::dot(pib_r, m2);
  acc += linalg::dot(pib_r, m3) + linalg::dot(pib_r * r_, m3);
  return acc;
}

double QbdSolution::tail_mass_from(std::size_t k) const {
  const std::size_t b = boundary_pi_.size() - 1;
  Vector v = boundary_pi_[b];
  for (std::size_t i = 0; i < k; ++i) v = v * r_;
  return linalg::dot(v, i_minus_r_inv_ * linalg::ones(r_.rows()));
}

std::vector<double> QbdSolution::tail_mass_sequence(
    std::size_t count) const {
  std::vector<double> out;
  out.reserve(count);
  Vector v = boundary_pi_.back();
  const Vector w = i_minus_r_inv_ * linalg::ones(r_.rows());
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(linalg::dot(v, w));
    if (k + 1 < count) v = v * r_;
  }
  return out;
}

Vector QbdSolution::repeating_phase_mass() const {
  return boundary_pi_.back() * i_minus_r_inv_;
}

double QbdSolution::total_mass() const {
  double acc = 0.0;
  const std::size_t b = boundary_pi_.size() - 1;
  for (std::size_t i = 0; i < b; ++i) acc += linalg::sum(boundary_pi_[i]);
  return acc + linalg::sum(repeating_phase_mass());
}

QbdSolution solve(const QbdProcess& process, const SolveOptions& opts,
                  Workspace* ws) {
  obs::Span span("qbd.solve");
  span.arg("boundary", static_cast<std::int64_t>(process.boundary_size()));
  span.arg("repeating", static_cast<std::int64_t>(process.repeating_size()));
  obs::count("qbd.solve.count");
  Workspace local;
  Workspace& w = ws ? *ws : local;
  const QbdBlocks& blk = process.blocks();

  if (!opts.skip_stability_check) {
    const auto drift = process.drift();
    if (!drift.stable) {
      throw NumericalError(
          "QBD is not positive recurrent: mean up-drift " +
          std::to_string(drift.up_drift) + " >= mean down-drift " +
          std::to_string(drift.down_drift) + " (Theorem 4.4)");
    }
  }

  RSolveResult rres;
  if (opts.r_method == RMethod::kNewton) {
    // Newton's inner Sylvester sweep contracts like sp(R): near
    // saturation it can exhaust before the quadratic outer step pays
    // off. That throw is recoverable by construction — fall back to the
    // quadratic default on the same blocks, counted so the bench can
    // see it.
    try {
      rres = solve_r_newton(blk.a0, blk.a1, blk.a2, opts.r_options, &w);
    } catch (const NumericalError&) {
      obs::count("qbd.rsolve.newton.fallback");
      rres = solve_r_logreduction(blk.a0, blk.a1, blk.a2, opts.r_options, &w);
    }
  } else {
    rres = opts.r_method == RMethod::kLogReduction
               ? solve_r_logreduction(blk.a0, blk.a1, blk.a2, opts.r_options,
                                      &w)
           : opts.r_method == RMethod::kCyclicReduction
               ? solve_r_cyclic_reduction(blk.a0, blk.a1, blk.a2,
                                          opts.r_options, &w)
               : solve_r_substitution(blk.a0, blk.a1, blk.a2, opts.r_options,
                                      &w);
  }
  return solve_with_r(process, rres.r, opts, &w);
}

QbdSolution solve_with_r(const QbdProcess& process, const Matrix& r,
                         const SolveOptions& opts, Workspace* ws) {
  Workspace local;
  Workspace& w = ws ? *ws : local;
  const QbdBlocks& blk = process.blocks();

  const auto spec = linalg::spectral_radius(r);
  if (spec.radius >= 1.0) {
    throw NumericalError("sp(R) = " + std::to_string(spec.radius) +
                         " >= 1: chain is not positive recurrent");
  }

  const std::size_t D = process.boundary_size();
  const std::size_t d = process.repeating_size();
  const std::size_t n = D + d;

  // Balance system over x = [pi_boundary, pi_b] (eqs. 25–26):
  //   boundary columns:  x_B B00 + x_b B10          = 0
  //   level-b columns:   x_B B01 + x_b (B11 + R A2) = 0
  // with one equation replaced by the normalization (eq. 24):
  //   x_B e + x_b (I-R)^{-1} e = 1.
  if (opts.r_options.sparse) {
    // The R solver left a CSR mirror of A2 in the workspace; refresh it
    // here anyway (idempotent, O(d^2)) so this block never depends on
    // which solver ran. The product is bitwise identical to the dense one.
    w.a2_csr.assign_from_dense(blk.a2);
    linalg::multiply_into(w.ra2, r, w.a2_csr);
  } else {
    linalg::multiply_into(w.ra2, r, blk.a2);
  }
  w.ra2 += blk.b11;  // the level-b diagonal block B11 + R A2
  Matrix& m = w.bal;
  m.assign_zero(n, n);
  m.insert_block(0, 0, blk.b00);
  m.insert_block(0, D, blk.b01);
  m.insert_block(D, 0, blk.b10);
  m.insert_block(D, D, w.ra2);

  // Transpose into column form M^T x^T = 0 and overwrite the first
  // equation with the normalization row (the balance equations have rank
  // n-1 for an irreducible chain, so dropping any single one is safe).
  Matrix& mt = w.balt;
  mt.assign_zero(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) mt(i, j) = m(j, i);
  Matrix i_minus_r_inv = linalg::inverse(Matrix::identity(d) - r);
  const Vector tail_weights = i_minus_r_inv * linalg::ones(d);
  for (std::size_t j = 0; j < D; ++j) mt(0, j) = 1.0;
  for (std::size_t j = 0; j < d; ++j) mt(0, D + j) = tail_weights[j];
  Vector rhs(n, 0.0);
  rhs[0] = 1.0;

  Vector x;
  try {
    x = linalg::Lu(mt).solve(rhs);
  } catch (const NumericalError&) {
    throw NumericalError(
        "QBD boundary system is singular — the chain is likely reducible "
        "(check QbdProcess::is_irreducible())");
  }

  // Numerical hygiene: clip round-off negatives before normalizing.
  for (double& v : x) {
    GS_ASSERT(v >= -1e-9);
    v = std::max(v, 0.0);
  }

  // Split x into per-level boundary vectors.
  std::vector<Vector> boundary;
  boundary.reserve(process.boundary_levels() + 1);
  std::size_t off = 0;
  for (std::size_t dim : process.boundary_level_dims()) {
    boundary.emplace_back(x.begin() + static_cast<std::ptrdiff_t>(off),
                          x.begin() + static_cast<std::ptrdiff_t>(off + dim));
    off += dim;
  }
  boundary.emplace_back(x.begin() + static_cast<std::ptrdiff_t>(D),
                        x.end());

  // Renormalize exactly (clipping and round-off can leave total mass a few
  // ulps off 1).
  // The (I-R)^{-1} computed for the normalization row is bit-for-bit the
  // inverse the QbdSolution constructor would recompute (same r, same
  // deterministic kernels), so both the probe and the returned solution
  // reuse it instead of paying two more O(d^3) factorizations.
  {
    const QbdSolution probe(boundary, r, i_minus_r_inv, spec.radius);
    const double total = probe.total_mass();
    if (std::fabs(total - 1.0) > 1e-6) {
      throw NumericalError(
          "QBD solution mass " + std::to_string(total) +
          " deviates from 1 — boundary system is ill-conditioned");
    }
    for (auto& lvl : boundary)
      for (double& v : lvl) v /= total;
  }
  return QbdSolution(std::move(boundary), r, std::move(i_minus_r_inv),
                     spec.radius);
}

}  // namespace gs::qbd
