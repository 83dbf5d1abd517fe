// Block-tridiagonal linear solves (block Thomas algorithm), factored once.
//
// The truncated serving-state sub-generator of Theorem 4.3 is block-
// tridiagonal in the level: computing effective-quantum moments needs
// (-T)^{-1} e and (-T)^{-2} e, and a dense LU at deep truncations
// (thousands of levels at high load) would be cubic in the full
// dimension. Block elimination is linear in the number of levels and
// cubic only in the per-level block size, which is tiny.
//
// Two things make the refit cheap on top of that:
//  * Factor once, solve many. Forward elimination (the Schur complements
//    D'_i and their LU factors) runs once in the constructor; every
//    right-hand side then only substitutes through the stored factors.
//  * Shared factors on a repeating tail. The matrix is given as runs of
//    identical block rows (the censored chain is level-independent above
//    its boundary levels), and a level whose off-diagonal blocks and
//    Schur complement are bitwise equal to the previous level's reuses
//    that level's factors. The elimination recurrence is a deterministic
//    function of those bits, so every later level of the run would repeat
//    them exactly: sharing changes no bit of the solution, and a deep
//    chain factors only its head plus the ~20 levels D'_i needs to reach
//    its floating-point fixed point.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace gs::linalg {

/// One block row of a block-tridiagonal matrix, repeated `repeat` times:
/// the sub-diagonal block `lower` (coupling to the previous block row;
/// 0x0 on the first row), the square diagonal block `diag` and the
/// super-diagonal block `upper` (coupling to the next row; 0x0 on the
/// last). Within a run of repeat > 1 consecutive rows are the same, so
/// its off-diagonal blocks must be square.
struct BlockRow {
  Matrix lower;
  Matrix diag;
  Matrix upper;
  std::size_t repeat = 1;
};

/// Block LU factorization of a block-tridiagonal matrix M given as runs
/// of block rows, for solving M x = b against any number of right-hand
/// sides. The constructor throws gs::InvalidArgument on inconsistent
/// block shapes and gs::NumericalError if a pivot block is singular.
class BlockTridiagFactor {
 public:
  explicit BlockTridiagFactor(const std::vector<BlockRow>& rows);

  /// Solve M x = b; `b` is the concatenation of the per-row right-hand
  /// sides. Bitwise the same result as a freshly factored matrix gives.
  Vector solve(const Vector& b) const;

  /// Distinct level factorizations held: the block rows (runs expanded)
  /// minus those that share their predecessor's factors.
  std::size_t distinct_factors() const { return factors_.size(); }

 private:
  // An off-diagonal block, CSR-compressed when at least half its entries
  // are zero (the serving chain's arrival and completion couplings are
  // O(rows) dense). Either form yields the same bits.
  struct Coupling {
    Matrix dense;
    std::optional<SparseMatrix> csr;
  };
  // One factored level: LU of the Schur complement D'_i and the couplings
  // the substitutions apply, as indices into upper_/lower_: U_i to the
  // next row and L_i, the next row's lower block (kNone on the last row).
  struct Factor {
    Lu lu;
    std::size_t upper;
    std::size_t lower;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::vector<Coupling> upper_, lower_;  // per input row (run)
  std::vector<Factor> factors_;
  std::vector<std::size_t> row_factor_;  // per block row, into factors_
  std::size_t dim_ = 0;
};

}  // namespace gs::linalg
