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
//
// Solves work on the reach of the right-hand side, too.  Their contract
// is that the result is bit-identical, signed zeros and NaNs included, to
// the dense solve that visits every position in order: forward over L and
// backward over U with a position skipped when its value is exactly zero,
// and, for the transpose, the pull form that subtracts every stored entry
// of a U or L column.
//  * An unreached position sees the same arithmetic as for an all-+0.0
//    right-hand side, so it takes that solve's value, its "zero image",
//    computed once per factor by the dense solve of b = +0: +0/diag for
//    solve(), signed zeros from the pull sums for solve_transpose().
//  * Both solves seed the reach with every right-hand-side entry whose
//    bits are not +0.0, so -0.0 and NaN count.
//  * solve() grows it through the L and U entries of each reached
//    position that is applied (its value is not zero).
//  * solve_transpose() grows it through row-wise copies of L and U built
//    at factor time: a reached position whose value differs from its zero
//    image in any bit, a zero of the other sign included, marks every
//    position that reads it.  A position equal to its image changes
//    nothing downstream, so the reach stops there.
// A solve costs a few O(n) streaming passes (the seed scan and the copy
// of the zero image) plus the work on its reach, instead of gathering,
// dividing and scattering all n positions.

#include <cstddef>
#include <span>
#include <vector>

#include "lp/index_set.hpp"

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

  /// Solve A x = b in place (b enters dense, leaves as x).  Uses member
  /// scratch: do not call solve or solve_transpose concurrently on one
  /// object.
  void solve(std::vector<double>& b);

  /// Solve A^T y = c in place.  Same scratch caveat as solve().
  void solve_transpose(std::vector<double>& c);

 private:
  // Compressed columns: column k is entries[start[k] .. start[k+1]).
  template <class Entry>
  struct Compressed {
    std::vector<std::size_t> start;
    std::vector<Entry> entries;

    std::span<const Entry> column(std::size_t k) const {
      return {entries.data() + start[k], entries.data() + start[k + 1]};
    }
  };

  void build_readers(const Compressed<MatrixEntry>& factor,
                     Compressed<std::size_t>& readers) const;

  std::size_t n_ = 0;
  bool ok_ = false;

  // L (strictly below the diagonal, unit diagonal implied) by elimination
  // step and U (rows above the diagonal, diagonal stored separately) by
  // column, both in *pivotal* coordinates: entry rows refer to elimination
  // positions, not original rows.  Column k of each is appended at step k.
  Compressed<MatrixEntry> lower_;
  Compressed<MatrixEntry> upper_;
  std::vector<double> diag_;

  // perm_row_[original_row] = pivotal position; inv_row_ is the
  // inverse map.  Columns are processed in caller order via perm_col_.
  std::vector<std::size_t> perm_row_;
  std::vector<std::size_t> inv_row_;
  std::vector<std::size_t> perm_col_;  // pivotal position -> original col
  std::vector<std::size_t> inv_col_;   // original col -> pivotal position

  // Row-wise structure for solve_transpose's reach: column p of
  // upper_readers_ lists the columns whose U^T step reads position p, and
  // column p of lower_readers_ the positions whose L^T step reads it.
  Compressed<std::size_t> upper_readers_;
  Compressed<std::size_t> lower_readers_;

  // Zero images: the solves' values for an all-+0.0 right-hand side.
  std::vector<double> solve_zero_;      // solve() output, by original col
  std::vector<double> upper_zero_;      // U^T step, by pivotal position
  std::vector<double> transpose_zero_;  // solve_transpose() output, by row

  // Solve scratch, at rest between calls: work_ all +0.0 (it is also the
  // factorization's work vector), upper_work_ == upper_zero_, lower_work_
  // the final transpose image by position, reach_ empty.
  std::vector<double> work_;
  std::vector<double> upper_work_;
  std::vector<double> lower_work_;
  IndexSet reach_;
};

}  // namespace cellstream::lp
