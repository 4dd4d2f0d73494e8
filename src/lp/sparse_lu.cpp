#include "lp/sparse_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "support/error.hpp"

namespace cellstream::lp {

namespace {
constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}

bool SparseLu::factor(const SparseColumns& columns) {
  n_ = columns.size();
  ok_ = false;

  lower_.start.assign(1, 0);
  lower_.entries.clear();
  upper_.start.assign(1, 0);
  upper_.entries.clear();
  diag_.assign(n_, 0.0);
  perm_row_.assign(n_, kUnassigned);   // original row -> pivotal position
  inv_row_.assign(n_, kUnassigned);    // pivotal position -> original row

  // Cheap fill-reducing column order: sparsest columns first.
  perm_col_.resize(n_);
  std::iota(perm_col_.begin(), perm_col_.end(), 0);
  std::stable_sort(perm_col_.begin(), perm_col_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return columns[a].size() < columns[b].size();
                   });

  std::vector<double>& work = work_;      // by original row index
  work.assign(n_, 0.0);
  std::vector<std::size_t> touched;       // nonzero original rows in work
  touched.reserve(64);

  // Reach set of the current column, over pivotal positions.  A pivoted
  // row's position is added whenever the row enters `touched` (goes from
  // zero to nonzero in `work`), so every position with a nonzero
  // multiplier is in the set.  L column t only holds rows pivoted after t,
  // so applying it adds positions above t: one upward drain sees them all
  // in ascending order and leaves the set empty.
  reach_.reset(n_);
  const auto add_to_reach = [&](std::size_t row) {
    const std::size_t pos = perm_row_[row];
    if (pos != kUnassigned) reach_.insert(pos);
  };

  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t col = perm_col_[k];
    CS_ENSURE(col < n_, "SparseLu: bad column index");

    // Scatter A(:, col).
    touched.clear();
    for (const MatrixEntry& e : columns[col]) {
      CS_ENSURE(e.row < n_, "SparseLu: entry row out of range");
      if (work[e.row] == 0.0 && e.value != 0.0) touched.push_back(e.row);
      work[e.row] += e.value;
    }

    // Sparse lower solve: apply the reached L columns in pivotal order.
    for (std::size_t r : touched) add_to_reach(r);
    reach_.drain([&](std::size_t t) {
      const double alpha = work[inv_row_[t]];
      if (alpha == 0.0) return;
      for (const MatrixEntry& e : lower_.column(t)) {
        // lower_ entries use original row ids during factorization.
        if (work[e.row] == 0.0) {
          touched.push_back(e.row);
          add_to_reach(e.row);
        }
        work[e.row] -= alpha * e.value;
      }
    });

    // Strict partial pivoting among not-yet-pivoted rows; the first row in
    // touched order wins a tie.
    std::size_t pivot = kUnassigned;
    double pivot_mag = 0.0;
    for (std::size_t r : touched) {
      if (perm_row_[r] != kUnassigned) continue;
      const double mag = std::abs(work[r]);
      if (mag > pivot_mag) {
        pivot = r;
        pivot_mag = mag;
      }
    }
    if (pivot_mag < 1e-12) {
      for (std::size_t r : touched) work[r] = 0.0;
      return false;  // structurally or numerically singular
    }

    diag_[k] = work[pivot];
    perm_row_[pivot] = k;
    inv_row_[k] = pivot;

    // Split the worked column into U (pivoted rows) and L (the rest).
    for (std::size_t r : touched) {
      const double v = work[r];
      work[r] = 0.0;
      if (v == 0.0 || r == pivot) continue;
      const std::size_t pos = perm_row_[r];
      if (pos != kUnassigned && pos < k) {
        upper_.entries.push_back({pos, v});  // U(pos, k), pivotal row index
      } else if (pos == kUnassigned) {
        // Original row id for now; converted after the loop.
        lower_.entries.push_back({r, v / diag_[k]});
      }
    }
    lower_.start.push_back(lower_.entries.size());
    upper_.start.push_back(upper_.entries.size());
  }

  // Convert L's row ids to pivotal positions (every row is assigned now).
  for (MatrixEntry& e : lower_.entries) e.row = perm_row_[e.row];

  inv_col_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) inv_col_[perm_col_[k]] = k;
  build_readers(upper_, upper_readers_);
  build_readers(lower_, lower_readers_);

  // Zero images: the dense solves of an all-+0.0 right-hand side.  In
  // solve() nothing is applied, so each position ends as +0/diag.  The
  // transpose runs the full dense U^T and L^T passes: a pull over zeros
  // can still flip the sign of a zero.
  solve_zero_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    solve_zero_[perm_col_[k]] = 0.0 / diag_[k];
  }
  upper_zero_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    double acc = 0.0;
    for (const MatrixEntry& e : upper_.column(k)) {
      acc -= e.value * upper_zero_[e.row];
    }
    upper_zero_[k] = acc / diag_[k];
  }
  lower_work_ = upper_zero_;
  for (std::size_t k = n_; k-- > 0;) {
    double acc = lower_work_[k];
    for (const MatrixEntry& e : lower_.column(k)) {
      acc -= e.value * lower_work_[e.row];
    }
    lower_work_[k] = acc;
  }
  transpose_zero_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    transpose_zero_[inv_row_[k]] = lower_work_[k];
  }
  upper_work_ = upper_zero_;

  ok_ = true;
  return true;
}

// The row-wise index lists of one triangular factor: column p of
// `readers` holds every position k whose column has an entry at p.
void SparseLu::build_readers(const Compressed<MatrixEntry>& factor,
                             Compressed<std::size_t>& readers) const {
  readers.start.assign(n_ + 1, 0);
  for (const MatrixEntry& e : factor.entries) ++readers.start[e.row + 1];
  std::partial_sum(readers.start.begin(), readers.start.end(),
                   readers.start.begin());
  readers.entries.resize(factor.entries.size());
  std::vector<std::size_t> next(readers.start.begin(), readers.start.end() - 1);
  for (std::size_t k = 0; k < n_; ++k) {
    for (const MatrixEntry& e : factor.column(k)) {
      readers.entries[next[e.row]++] = k;
    }
  }
}

std::size_t SparseLu::fill() const {
  return diag_.size() + lower_.entries.size() + upper_.entries.size();
}

void SparseLu::solve(std::vector<double>& b) {
  CS_ENSURE(ok_, "SparseLu::solve before successful factor");
  CS_ENSURE(b.size() == n_, "SparseLu::solve: size mismatch");
  // work = P b on the seeds: every entry that is not +0.0.  Later a
  // position joins the reach when an update first finds it zero; one with
  // a nonzero value is in it already.
  for (std::size_t r = 0; r < n_; ++r) {
    if (same_bits(b[r], 0.0)) continue;
    const std::size_t k = perm_row_[r];
    work_[k] = b[r];
    reach_.insert(k);
  }
  // Forward: L y = P b (unit diagonal), ascending over the reach.
  reach_.ascend([&](std::size_t k) {
    const double alpha = work_[k];
    if (alpha == 0.0) return;
    for (const MatrixEntry& e : lower_.column(k)) {
      if (work_[e.row] == 0.0) reach_.insert(e.row);
      work_[e.row] -= alpha * e.value;
    }
  });
  // Backward: U z = y, descending over the reach.
  reach_.descend([&](std::size_t k) {
    const double z = work_[k] / diag_[k];
    work_[k] = z;
    if (z == 0.0) return;
    for (const MatrixEntry& e : upper_.column(k)) {
      if (work_[e.row] == 0.0) reach_.insert(e.row);
      work_[e.row] -= z * e.value;
    }
  });
  // x[q[k]] = z[k]: the zero image, overwritten on the reach.
  std::copy(solve_zero_.begin(), solve_zero_.end(), b.begin());
  reach_.drain([&](std::size_t k) {
    b[perm_col_[k]] = work_[k];
    work_[k] = 0.0;
  });
}

void SparseLu::solve_transpose(std::vector<double>& c) {
  CS_ENSURE(ok_, "SparseLu::solve_transpose before successful factor");
  CS_ENSURE(c.size() == n_, "SparseLu::solve_transpose: size mismatch");
  for (std::size_t j = 0; j < n_; ++j) {
    if (!same_bits(c[j], 0.0)) reach_.insert(inv_col_[j]);
  }
  // w solves U^T w = Q^T c (forward substitution, U^T lower).  A
  // position whose value leaves its zero image, even for a zero of the
  // other sign, marks the positions that read it.
  reach_.ascend([&](std::size_t k) {
    double acc = c[perm_col_[k]];
    for (const MatrixEntry& e : upper_.column(k)) {
      acc -= e.value * upper_work_[e.row];
    }
    const double value = acc / diag_[k];
    if (!same_bits(value, upper_work_[k])) {
      for (std::size_t reader : upper_readers_.column(k)) reach_.insert(reader);
    }
    upper_work_[k] = value;
  });
  // v solves L^T v = w (backward, unit diagonal).
  reach_.descend([&](std::size_t k) {
    double acc = upper_work_[k];
    for (const MatrixEntry& e : lower_.column(k)) {
      acc -= e.value * lower_work_[e.row];
    }
    if (!same_bits(acc, lower_work_[k])) {
      for (std::size_t reader : lower_readers_.column(k)) reach_.insert(reader);
    }
    lower_work_[k] = acc;
  });
  // y = P^T v: the zero image, overwritten on the reach.
  std::copy(transpose_zero_.begin(), transpose_zero_.end(), c.begin());
  reach_.drain([&](std::size_t k) {
    c[inv_row_[k]] = lower_work_[k];
    upper_work_[k] = upper_zero_[k];
    lower_work_[k] = transpose_zero_[inv_row_[k]];
  });
}

}  // namespace cellstream::lp
