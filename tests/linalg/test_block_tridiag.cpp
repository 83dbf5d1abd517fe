#include "linalg/block_tridiag.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "linalg/lu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using gs::linalg::BlockRow;
using gs::linalg::BlockTridiagFactor;
using gs::linalg::Matrix;
using gs::linalg::Vector;

// Block rows (repeat 1) from per-level diagonal, upper and lower blocks;
// lower[i] couples row i+1 to row i.
std::vector<BlockRow> rows_of(const std::vector<Matrix>& diag,
                              const std::vector<Matrix>& upper,
                              const std::vector<Matrix>& lower) {
  std::vector<BlockRow> rows(diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) {
    rows[i].diag = diag[i];
    if (i < upper.size()) rows[i].upper = upper[i];
    if (i > 0 && i - 1 < lower.size()) rows[i].lower = lower[i - 1];
  }
  return rows;
}

Vector solve(const std::vector<Matrix>& diag, const std::vector<Matrix>& upper,
             const std::vector<Matrix>& lower, const Vector& b) {
  return BlockTridiagFactor(rows_of(diag, upper, lower)).solve(b);
}

// Assemble the dense equivalent for cross-checking, runs expanded.
Matrix assemble(const std::vector<BlockRow>& rows) {
  std::size_t n = 0;
  for (const auto& r : rows) n += r.diag.rows() * r.repeat;
  Matrix m(n, n);
  std::size_t off = 0;
  for (const auto& r : rows) {
    for (std::size_t j = 0; j < r.repeat; ++j) {
      m.insert_block(off, off, r.diag);
      if (!r.upper.empty()) m.insert_block(off, off + r.diag.rows(), r.upper);
      if (!r.lower.empty()) m.insert_block(off, off - r.lower.cols(), r.lower);
      off += r.diag.rows();
    }
  }
  return m;
}

// Block Thomas with every level factored afresh and nothing shared: the
// reference the shared-factor path must reproduce bit for bit.
Vector unshared_thomas(const std::vector<BlockRow>& rows, const Vector& b) {
  std::vector<const BlockRow*> level;
  for (const auto& r : rows)
    for (std::size_t j = 0; j < r.repeat; ++j) level.push_back(&r);
  const std::size_t n = level.size();
  std::vector<gs::linalg::Lu> lu;
  std::vector<Vector> y(n);
  std::size_t off = 0;
  Matrix dprime = level[0]->diag;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t ni = level[i]->diag.rows();
    y[i].assign(b.begin() + static_cast<std::ptrdiff_t>(off),
                b.begin() + static_cast<std::ptrdiff_t>(off + ni));
    off += ni;
    if (i > 0) {
      const Vector corr = level[i]->lower * lu[i - 1].solve(y[i - 1]);
      for (std::size_t r = 0; r < ni; ++r) y[i][r] -= corr[r];
      dprime = level[i]->diag;
      dprime -= level[i]->lower * lu[i - 1].solve(level[i - 1]->upper);
    }
    lu.emplace_back(dprime);
  }
  std::vector<Vector> x(n);
  x[n - 1] = lu[n - 1].solve(y[n - 1]);
  for (std::size_t i = n - 1; i-- > 0;) {
    const Vector up = level[i]->upper * x[i + 1];
    for (std::size_t r = 0; r < up.size(); ++r) y[i][r] -= up[r];
    x[i] = lu[i].solve(y[i]);
  }
  Vector out;
  for (const auto& seg : x) out.insert(out.end(), seg.begin(), seg.end());
  return out;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A 2x2-block birth-death-like chain: head row, `repeat` identical
// middle rows, distinct last row — the censored serving chain's shape.
std::vector<BlockRow> homogeneous_chain(std::size_t repeat) {
  const Matrix d{{4.0, 1.0}, {0.5, 3.0}};
  const Matrix u{{-1.0, 0.0}, {-0.5, -0.25}};
  const Matrix l{{-0.75, -0.2}, {0.0, -1.0}};
  return {BlockRow{Matrix(), d, u, 1}, BlockRow{l, d, u, repeat},
          BlockRow{l, Matrix{{3.0, 1.0}, {0.5, 2.0}}, Matrix(), 1}};
}

Vector ramp(std::size_t n) {
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
  return b;
}

TEST(BlockTridiag, SingleBlockIsPlainSolve) {
  const Matrix d{{4.0, 1.0}, {1.0, 3.0}};
  const Vector b{5.0, 4.0};
  const Vector x = solve({d}, {}, {}, b);
  const Vector expect = gs::linalg::solve(d, b);
  EXPECT_LT(gs::linalg::max_abs_diff(x, expect), 1e-12);
}

TEST(BlockTridiag, ScalarBlocksMatchThomasAlgorithm) {
  // Classic tridiagonal system with 1x1 blocks.
  std::vector<Matrix> diag, upper, lower;
  const std::size_t n = 8;
  for (std::size_t i = 0; i < n; ++i) {
    diag.push_back(Matrix{{4.0}});
    if (i + 1 < n) {
      upper.push_back(Matrix{{1.0}});
      lower.push_back(Matrix{{1.5}});
    }
  }
  Vector b(n, 1.0);
  const Vector x = solve(diag, upper, lower, b);
  const Matrix dense = assemble(rows_of(diag, upper, lower));
  EXPECT_LT(gs::linalg::max_abs_diff(dense * x, b), 1e-12);
}

TEST(BlockTridiag, MixedBlockSizesMatchDenseSolve) {
  // Blocks of sizes 1, 3, 2 — the gang boundary's shape.
  gs::util::Rng rng(404);
  auto rand_block = [&](std::size_t r, std::size_t c, bool dominant) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i)
      for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform();
    if (dominant) {
      for (std::size_t i = 0; i < r && i < c; ++i) m(i, i) += 6.0;
    }
    return m;
  };
  const std::vector<std::size_t> sizes = {1, 3, 2};
  std::vector<Matrix> diag, upper, lower;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    diag.push_back(rand_block(sizes[i], sizes[i], true));
    if (i + 1 < sizes.size()) {
      upper.push_back(rand_block(sizes[i], sizes[i + 1], false));
      lower.push_back(rand_block(sizes[i + 1], sizes[i], false));
    }
  }
  Vector b(6);
  for (auto& v : b) v = rng.uniform() * 4.0 - 2.0;
  const Vector x = solve(diag, upper, lower, b);
  const Matrix dense = assemble(rows_of(diag, upper, lower));
  const Vector expect = gs::linalg::solve(dense, b);
  EXPECT_LT(gs::linalg::max_abs_diff(x, expect), 1e-10);
}

TEST(BlockTridiag, DeepChainStable) {
  // 2000 levels of a (negated) birth-death sub-generator — the effective
  // quantum use case: solve (-T) x = e and check the residual.
  const std::size_t n = 2000;
  std::vector<Matrix> diag(n, Matrix{{3.0}});
  std::vector<Matrix> upper(n - 1, Matrix{{-1.0}});
  std::vector<Matrix> lower(n - 1, Matrix{{-1.5}});
  const Vector x = solve(diag, upper, lower, Vector(n, 1.0));
  // Residual check at a few positions.
  for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
    double r = 3.0 * x[i];
    if (i > 0) r -= 1.5 * x[i - 1];
    if (i + 1 < n) r -= 1.0 * x[i + 1];
    EXPECT_NEAR(r, 1.0, 1e-9) << "row " << i;
  }
}

TEST(BlockTridiag, HomogeneousChainSharesFactors) {
  // 600 levels of 2x2 blocks.
  const auto rows = homogeneous_chain(598);
  const BlockTridiagFactor f(rows);
  // D'_i reaches its floating-point fixed point within a few dozen
  // levels; every level after that shares its predecessor's factors.
  EXPECT_LT(f.distinct_factors(), 60u);
  const Vector b = ramp(1200);
  const Vector x = f.solve(b);
  EXPECT_LT(gs::linalg::max_abs_diff(x, gs::linalg::solve(assemble(rows), b)),
            1e-12);
  // Sharing is bitwise-invisible: the same bits as factoring every level.
  EXPECT_TRUE(bitwise_equal(x, unshared_thomas(rows, b)));
}

TEST(BlockTridiag, RunsMatchExpandedRowsBitwise) {
  // A run of 598 identical rows and the same rows listed one by one give
  // the same factor sharing and the same bits.
  const auto runs = homogeneous_chain(598);
  std::vector<BlockRow> expanded{runs[0]};
  for (std::size_t j = 0; j < 598; ++j) {
    expanded.push_back(runs[1]);
    expanded.back().repeat = 1;
  }
  expanded.push_back(runs[2]);
  const BlockTridiagFactor a(runs), b(expanded);
  EXPECT_EQ(a.distinct_factors(), b.distinct_factors());
  const Vector rhs = ramp(1200);
  EXPECT_TRUE(bitwise_equal(a.solve(rhs), b.solve(rhs)));
}

TEST(BlockTridiag, HeterogeneousChainSharesNone) {
  gs::util::Rng rng(11);
  std::vector<BlockRow> rows(40);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].diag = Matrix{{5.0 + rng.uniform(), rng.uniform()},
                          {rng.uniform(), 5.0 + rng.uniform()}};
    if (i > 0)
      rows[i].lower = Matrix{{-rng.uniform(), 0.0}, {0.0, -rng.uniform()}};
    if (i + 1 < rows.size())
      rows[i].upper = Matrix{{-rng.uniform(), 0.0}, {0.0, -rng.uniform()}};
  }
  const BlockTridiagFactor f(rows);
  EXPECT_EQ(f.distinct_factors(), rows.size());
  const Vector b = ramp(2 * rows.size());
  EXPECT_TRUE(bitwise_equal(f.solve(b), unshared_thomas(rows, b)));
}

TEST(BlockTridiag, TwoRightHandSidesMatchFreshFactorsBitwise) {
  // The effective-quantum moments: v1 = M^{-1} e, v2 = M^{-1} v1.
  const auto rows = homogeneous_chain(300);
  const Vector e(2 * 302, 1.0);
  const BlockTridiagFactor once(rows);
  const Vector v1 = once.solve(e);
  const Vector v2 = once.solve(v1);
  EXPECT_TRUE(bitwise_equal(v1, BlockTridiagFactor(rows).solve(e)));
  EXPECT_TRUE(bitwise_equal(v2, BlockTridiagFactor(rows).solve(v1)));
}

TEST(BlockTridiag, ValidationRejectsBadShapes) {
  EXPECT_THROW(solve({}, {}, {}, {}), gs::InvalidArgument);
  // Wrong off-diagonal count.
  EXPECT_THROW(solve({Matrix{{1.0}}, Matrix{{1.0}}}, {}, {}, {1.0, 1.0}),
               gs::InvalidArgument);
  // Wrong rhs length.
  EXPECT_THROW(solve({Matrix{{1.0}}}, {}, {}, {1.0, 2.0}),
               gs::InvalidArgument);
  // Off-diagonal shape mismatch.
  EXPECT_THROW(solve({Matrix{{1.0}}, Matrix{{1.0}}}, {Matrix(2, 1)},
                     {Matrix(1, 1)}, {1.0, 1.0}),
               gs::InvalidArgument);
  // A lower block on the first row, a zero repeat count, a repeated row
  // whose couplings are not square.
  EXPECT_THROW(BlockTridiagFactor({BlockRow{Matrix{{1.0}}, Matrix{{1.0}},
                                            Matrix(), 1}}),
               gs::InvalidArgument);
  EXPECT_THROW(
      BlockTridiagFactor({BlockRow{Matrix(), Matrix{{1.0}}, Matrix(), 0}}),
      gs::InvalidArgument);
  EXPECT_THROW(BlockTridiagFactor({BlockRow{Matrix(), Matrix{{1.0}},
                                            Matrix{{1.0}}, 1},
                                   BlockRow{Matrix{{1.0}}, Matrix{{1.0}},
                                            Matrix(1, 2), 2},
                                   BlockRow{Matrix(2, 1), Matrix(2, 2, 1.0),
                                            Matrix(), 1}}),
               gs::InvalidArgument);
}

TEST(BlockTridiag, SingularPivotThrows) {
  EXPECT_THROW(solve({Matrix{{0.0}}}, {}, {}, {1.0}), gs::NumericalError);
  // A singular Schur complement after a shared run throws too.
  const Matrix one{{1.0}};
  EXPECT_THROW(BlockTridiagFactor({BlockRow{Matrix(), one, one, 1},
                                   BlockRow{one, Matrix{{2.0}}, one, 3},
                                   BlockRow{one, one, Matrix(), 1}}),
               gs::NumericalError);
}

}  // namespace
