#pragma once
// Sparse LU factorization for simplex basis matrices.
//
// Left-looking LU with strict partial pivoting.  Column k of the factor is
// produced by a sparse lower-triangular solve on the scattered column
// A(:, q[k]).  Only the L columns the column *reaches* are applied: the
// reach set is seeded with the pivotal positions of the scattered rows and
// grows through each applied L column's rows that are already pivoted.
// Cell-mapping bases are extremely sparse (a handful of nonzeros per
// column at thousands of rows), so a column's reach is tiny and the
// factorization costs the arithmetic it performs plus a bitmap scan of
// one bit per earlier position, not O(m^2) work-vector reads.
//
// The reached columns are applied in ascending pivotal order (a bitmap
// over positions, scanned upward), not in the depth-first topological
// order of Gilbert-Peierls.  Both orders are valid for the triangular
// solve, but ascending order is the order of a dense scan over all
// earlier columns, so every work-vector update happens in the same
// sequence and rounds the same way: the factor, and every simplex pivot
// path built on it, does not depend on how the reach is found.
//
// Pivoting: among the column's rows that are not yet pivoted, the largest
// magnitude wins; on a tie the row that first became nonzero in the column
// wins.  A column whose best magnitude is below 1e-12 makes the matrix
// singular.
//
// The factorization is  L U = A[p, q]  with unit-diagonal L, row
// permutation p chosen by the pivoting rule and column order q chosen here
// (columns sorted by nonzero count, a cheap fill-reducing heuristic).

#include <cstddef>
#include <vector>

namespace cellstream::lp {

struct MatrixEntry {
  std::size_t row;
  double value;
};

/// One m x m sparse matrix given as columns of (row, value) entries.
using SparseColumns = std::vector<std::vector<MatrixEntry>>;

class SparseLu {
 public:
  /// Factor the matrix; returns false if (numerically) singular.
  bool factor(const SparseColumns& columns);

  bool ok() const { return ok_; }
  std::size_t dimension() const { return n_; }

  /// Number of stored nonzeros in L and U together (diagnostics).
  std::size_t fill() const;

  /// Solve A x = b in place (b enters dense, leaves as x).
  void solve(std::vector<double>& b) const;

  /// Solve A^T y = c in place.
  void solve_transpose(std::vector<double>& c) const;

 private:
  std::size_t n_ = 0;
  bool ok_ = false;

  // Column-compressed L (strictly below diagonal, unit diagonal implied)
  // and U (diagonal stored separately), both in *pivotal* coordinates:
  // entry rows refer to elimination positions, not original rows.
  std::vector<std::vector<MatrixEntry>> lower_;  // per elimination step
  std::vector<std::vector<MatrixEntry>> upper_;  // per column, rows < col
  std::vector<double> diag_;                     // U diagonal

  // perm_row_[original_row] = pivotal position; inv_row_ is the
  // inverse map.  Columns are processed in caller order via perm_col_.
  std::vector<std::size_t> perm_row_;
  std::vector<std::size_t> inv_row_;
  std::vector<std::size_t> perm_col_;  // pivotal position -> original col
};

}  // namespace cellstream::lp
