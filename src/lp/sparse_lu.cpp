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
}

bool SparseLu::factor(const SparseColumns& columns) {
  n_ = columns.size();
  ok_ = false;

  lower_.assign(n_, {});
  upper_.assign(n_, {});
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

  std::vector<double> work(n_, 0.0);      // by original row index
  std::vector<std::size_t> touched;       // nonzero original rows in work
  touched.reserve(64);

  // Reach set of the current column: a bitmap over pivotal positions, with
  // set bits only in words `lo`..`hi`.  A pivoted row's position is added
  // whenever the row enters `touched` (goes from zero to nonzero in
  // `work`), so every position with a nonzero multiplier is in the set.
  // L column t only holds rows pivoted after t, so applying it adds
  // positions above t: one upward scan that clears each bit it visits
  // sees them all in ascending order and leaves the bitmap empty.
  std::vector<std::uint64_t> reach((n_ + 63) / 64, 0);
  std::size_t lo = 0;
  std::size_t hi = 0;
  const auto add_to_reach = [&](std::size_t row) {
    const std::size_t pos = perm_row_[row];
    if (pos == kUnassigned) return;
    const std::size_t word = pos / 64;
    reach[word] |= std::uint64_t{1} << (pos % 64);
    lo = std::min(lo, word);
    hi = std::max(hi, word);
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
    lo = reach.size();
    hi = 0;
    for (std::size_t r : touched) add_to_reach(r);
    for (std::size_t word = lo; word <= hi && word < reach.size();) {
      if (reach[word] == 0) {
        ++word;
        continue;
      }
      const std::size_t t =
          word * 64 + static_cast<std::size_t>(std::countr_zero(reach[word]));
      reach[word] &= reach[word] - 1;
      const double alpha = work[inv_row_[t]];
      if (alpha == 0.0) continue;
      for (const MatrixEntry& e : lower_[t]) {
        // lower_ entries use original row ids during factorization.
        if (work[e.row] == 0.0) {
          touched.push_back(e.row);
          add_to_reach(e.row);
        }
        work[e.row] -= alpha * e.value;
      }
    }

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
    auto& lcol = lower_[k];
    auto& ucol = upper_[k];
    for (std::size_t r : touched) {
      const double v = work[r];
      work[r] = 0.0;
      if (v == 0.0 || r == pivot) continue;
      const std::size_t pos = perm_row_[r];
      if (pos != kUnassigned && pos < k) {
        ucol.push_back({pos, v});  // U(pos, k), pivotal row index
      } else if (pos == kUnassigned) {
        lcol.push_back({r, v / diag_[k]});  // original row id (for now)
      }
    }
  }

  // Convert L's row ids to pivotal positions (every row is assigned now).
  for (auto& col : lower_) {
    for (MatrixEntry& e : col) e.row = perm_row_[e.row];
  }

  ok_ = true;
  return true;
}

std::size_t SparseLu::fill() const {
  std::size_t total = diag_.size();
  for (const auto& col : lower_) total += col.size();
  for (const auto& col : upper_) total += col.size();
  return total;
}

void SparseLu::solve(std::vector<double>& b) const {
  CS_ENSURE(ok_, "SparseLu::solve before successful factor");
  CS_ENSURE(b.size() == n_, "SparseLu::solve: size mismatch");
  // y = P b (pivotal order).
  std::vector<double> y(n_);
  for (std::size_t k = 0; k < n_; ++k) y[k] = b[inv_row_[k]];
  // Forward: L y = y (unit diagonal).
  for (std::size_t k = 0; k < n_; ++k) {
    const double alpha = y[k];
    if (alpha == 0.0) continue;
    for (const MatrixEntry& e : lower_[k]) y[e.row] -= alpha * e.value;
  }
  // Backward: U z = y.
  for (std::size_t k = n_; k-- > 0;) {
    const double z = y[k] / diag_[k];
    y[k] = z;
    if (z == 0.0) continue;
    for (const MatrixEntry& e : upper_[k]) y[e.row] -= z * e.value;
  }
  // x[q[k]] = z[k].
  for (std::size_t k = 0; k < n_; ++k) b[perm_col_[k]] = y[k];
}

void SparseLu::solve_transpose(std::vector<double>& c) const {
  CS_ENSURE(ok_, "SparseLu::solve_transpose before successful factor");
  CS_ENSURE(c.size() == n_, "SparseLu::solve_transpose: size mismatch");
  // w solves U^T w = Q^T c (forward substitution, U^T lower).
  std::vector<double> w(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    double acc = c[perm_col_[k]];
    for (const MatrixEntry& e : upper_[k]) acc -= e.value * w[e.row];
    w[k] = acc / diag_[k];
  }
  // v solves L^T v = w (backward, unit diagonal).
  for (std::size_t k = n_; k-- > 0;) {
    double acc = w[k];
    for (const MatrixEntry& e : lower_[k]) acc -= e.value * w[e.row];
    w[k] = acc;
  }
  // y = P^T v: y[original_row] = v[pivotal position of that row].
  for (std::size_t k = 0; k < n_; ++k) c[inv_row_[k]] = w[k];
}

}  // namespace cellstream::lp
