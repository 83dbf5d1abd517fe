#include "linalg/block_tridiag.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "util/error.hpp"

namespace gs::linalg {

namespace {

bool is_empty(const Matrix& m) { return m.rows() == 0 && m.cols() == 0; }

// Shape checks over the expanded level sequence; returns the total
// dimension.
std::size_t validate(const std::vector<BlockRow>& rows) {
  GS_CHECK(!rows.empty(), "block tridiagonal system needs >= 1 block");
  GS_CHECK(is_empty(rows.front().lower),
           "block tridiagonal: the first row must have no lower block");
  GS_CHECK(is_empty(rows.back().upper),
           "block tridiagonal: the last row must have no upper block");
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const BlockRow& row = rows[r];
    const std::size_t n = row.diag.rows();
    GS_CHECK(row.repeat >= 1, "block row repeat count must be >= 1");
    GS_CHECK(row.diag.is_square() && n > 0,
             "diagonal blocks must be square and non-empty");
    if (row.repeat > 1) {
      GS_CHECK(row.upper.rows() == n && row.upper.cols() == n,
               "upper block shape mismatch");
      GS_CHECK(row.lower.rows() == n && row.lower.cols() == n,
               "lower block shape mismatch");
    }
    if (r + 1 < rows.size()) {
      const std::size_t next = rows[r + 1].diag.rows();
      GS_CHECK(row.upper.rows() == n && row.upper.cols() == next,
               "upper block shape mismatch");
      GS_CHECK(rows[r + 1].lower.rows() == next &&
                   rows[r + 1].lower.cols() == n,
               "lower block shape mismatch");
    }
    total += n * row.repeat;
  }
  return total;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const std::size_t n = a.rows() * a.cols();
  return n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(double)) == 0;
}

// Compress a block when at least half its entries are zero. A non-finite
// entry disables compression for the block: the sparse kernels' bitwise-
// identity guarantee (see sparse.hpp) requires finite operands.
std::optional<SparseMatrix> try_compress(const Matrix& m) {
  std::size_t nz = 0;
  const double* p = m.data();
  const std::size_t total = m.rows() * m.cols();
  for (std::size_t i = 0; i < total; ++i) {
    if (!std::isfinite(p[i])) return std::nullopt;
    if (p[i] != 0.0) ++nz;
  }
  if (2 * nz > total) return std::nullopt;
  return SparseMatrix::from_dense(m);
}

// y -= A x over raw storage. Each (A x)_i is accumulated before it is
// subtracted, in the order of operator*(Matrix, Vector) for a dense block
// and of multiply_into(Vector&, SparseMatrix, Vector) for a compressed
// one — the same bits either way.
void subtract_product(const Matrix& dense,
                      const std::optional<SparseMatrix>& csr, const double* x,
                      double* y) {
  if (csr) {
    const auto& rp = csr->row_ptr();
    const auto& ci = csr->col_idx();
    const auto& av = csr->values();
    for (std::size_t i = 0; i < csr->rows(); ++i) {
      double s = 0.0;
      for (std::size_t e = rp[i]; e < rp[i + 1]; ++e) s += av[e] * x[ci[e]];
      y[i] -= s;
    }
    return;
  }
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < dense.cols(); ++j) s += dense(i, j) * x[j];
    y[i] -= s;
  }
}

}  // namespace

BlockTridiagFactor::BlockTridiagFactor(const std::vector<BlockRow>& rows)
    : dim_(validate(rows)) {
  // Couplings once per input row: a run's levels all reference them.
  upper_.reserve(rows.size());
  lower_.reserve(rows.size());
  for (const BlockRow& row : rows) {
    upper_.push_back({row.upper, try_compress(row.upper)});
    lower_.push_back({row.lower, try_compress(row.lower)});
  }
  auto same_coupling = [](const std::vector<Coupling>& c, std::size_t a,
                          std::size_t b) {
    if (a == b) return true;
    return a != kNone && b != kNone && same_bits(c[a].dense, c[b].dense);
  };

  // Forward elimination: D'_0 = D_0, D'_{i+1} = D_{i+1} - L_i D'^{-1}_i U_i,
  // where L_i is the lower block of row i+1.
  Matrix dprime;    // D'_i of the current level
  Matrix last;      // D'_i of the level factors_.back() was built from
  Matrix dinv_u;    // D'^{-1}_i U_i scratch
  Matrix l_dinv_u;  // L_i D'^{-1}_i U_i of the latest factored level
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const BlockRow& row = rows[r];
    for (std::size_t j = 0; j < row.repeat; ++j) {
      const std::size_t lower =
          j + 1 < row.repeat ? r : (r + 1 < rows.size() ? r + 1 : kNone);
      dprime = row.diag;
      if (!row_factor_.empty()) dprime -= l_dinv_u;

      // Same Schur complement and couplings as the previous level: its
      // factors are this level's, bit for bit.
      if (!factors_.empty() && same_bits(dprime, last) &&
          same_coupling(upper_, r, factors_.back().upper) &&
          same_coupling(lower_, lower, factors_.back().lower)) {
        row_factor_.push_back(factors_.size() - 1);
        // The rows after this one inside the run, except its last (whose
        // lower coupling belongs to the next run), repeat the same
        // recurrence on the same bits.
        if (j + 2 < row.repeat) {
          row_factor_.insert(row_factor_.end(), row.repeat - j - 2,
                             factors_.size() - 1);
          j = row.repeat - 2;
        }
        continue;
      }

      Factor f{Lu(dprime), r, lower};
      if (lower != kNone) {
        f.lu.solve_into(row.upper, dinv_u);
        const Coupling& l = lower_[lower];
        if (l.csr) {
          multiply_into(l_dinv_u, *l.csr, dinv_u);
        } else {
          multiply_into(l_dinv_u, l.dense, dinv_u);
        }
      }
      std::swap(last, dprime);
      factors_.push_back(std::move(f));
      row_factor_.push_back(factors_.size() - 1);
    }
  }
}

Vector BlockTridiagFactor::solve(const Vector& b) const {
  GS_CHECK(b.size() == dim_, "rhs length mismatch");
  const std::size_t n = row_factor_.size();
  Vector x = b;
  Vector tmp;

  // Forward: y_0 = b_0, y_{i+1} = b_{i+1} - L_i D'^{-1}_i y_i (in place).
  std::size_t off = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Factor& f = factors_[row_factor_[i]];
    tmp.resize(f.lu.size());
    f.lu.solve_into(x.data() + off, tmp.data());
    off += f.lu.size();
    const Coupling& l = lower_[f.lower];
    subtract_product(l.dense, l.csr, tmp.data(), x.data() + off);
  }

  // Back: x_n = D'^{-1}_n y_n; x_i = D'^{-1}_i (y_i - U_i x_{i+1}).
  auto solve_level = [&](const Factor& f) {
    tmp.resize(f.lu.size());
    f.lu.solve_into(x.data() + off, tmp.data());
    std::copy(tmp.begin(), tmp.end(),
              x.begin() + static_cast<std::ptrdiff_t>(off));
  };
  solve_level(factors_[row_factor_[n - 1]]);
  for (std::size_t i = n - 1; i-- > 0;) {
    const Factor& f = factors_[row_factor_[i]];
    const std::size_t ni = f.lu.size();
    off -= ni;
    const Coupling& u = upper_[f.upper];
    subtract_product(u.dense, u.csr, x.data() + off + ni, x.data() + off);
    solve_level(f);
  }
  return x;
}

}  // namespace gs::linalg
