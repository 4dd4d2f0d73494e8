#include "lp/sparse_lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "support/rng.hpp"

namespace cellstream::lp {
namespace {

// Multiply A (columns) by x.
std::vector<double> matvec(const SparseColumns& cols,
                           const std::vector<double>& x) {
  std::vector<double> out(cols.size(), 0.0);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    for (const MatrixEntry& e : cols[j]) out[e.row] += e.value * x[j];
  }
  return out;
}

std::vector<double> matvec_transpose(const SparseColumns& cols,
                                     const std::vector<double>& y) {
  std::vector<double> out(cols.size(), 0.0);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    for (const MatrixEntry& e : cols[j]) out[j] += e.value * y[e.row];
  }
  return out;
}

// The dense-scan factorization SparseLu used before it eliminated over
// reach sets, kept as the reference the reach-set version must match bit
// for bit: for every column it visits all earlier L columns in pivotal
// order and skips those whose multiplier is exactly zero.  The threshold
// test is the old `pivot_threshold = 0.1` default, which never changed a
// pivot.
class DenseScanLu {
 public:
  bool factor(const SparseColumns& columns) {
    constexpr double kThreshold = 0.1;
    n_ = columns.size();
    lower_.assign(n_, {});
    upper_.assign(n_, {});
    diag_.assign(n_, 0.0);
    perm_row_.assign(n_, kUnassigned);
    inv_row_.assign(n_, kUnassigned);
    perm_col_.resize(n_);
    std::iota(perm_col_.begin(), perm_col_.end(), 0);
    std::stable_sort(perm_col_.begin(), perm_col_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return columns[a].size() < columns[b].size();
                     });
    std::vector<double> work(n_, 0.0);
    std::vector<std::size_t> touched;
    for (std::size_t k = 0; k < n_; ++k) {
      touched.clear();
      for (const MatrixEntry& e : columns[perm_col_[k]]) {
        if (work[e.row] == 0.0 && e.value != 0.0) touched.push_back(e.row);
        work[e.row] += e.value;
      }
      for (std::size_t t = 0; t < k; ++t) {
        const double alpha = work[inv_row_[t]];
        if (alpha == 0.0) continue;
        for (const MatrixEntry& e : lower_[t]) {
          if (work[e.row] == 0.0) touched.push_back(e.row);
          work[e.row] -= alpha * e.value;
        }
      }
      double max_mag = 0.0;
      for (std::size_t r : touched) {
        if (perm_row_[r] != kUnassigned) continue;
        max_mag = std::max(max_mag, std::abs(work[r]));
      }
      if (max_mag < 1e-12) return false;
      std::size_t pivot = kUnassigned;
      double pivot_mag = -1.0;
      for (std::size_t r : touched) {
        if (perm_row_[r] != kUnassigned) continue;
        const double mag = std::abs(work[r]);
        if (mag >= kThreshold * max_mag && mag > pivot_mag) {
          pivot = r;
          pivot_mag = mag;
        }
      }
      diag_[k] = work[pivot];
      perm_row_[pivot] = k;
      inv_row_[k] = pivot;
      for (std::size_t r : touched) {
        const double v = work[r];
        work[r] = 0.0;
        if (v == 0.0 || r == pivot) continue;
        const std::size_t pos = perm_row_[r];
        if (pos != kUnassigned && pos < k) {
          upper_[k].push_back({pos, v});
        } else if (pos == kUnassigned) {
          lower_[k].push_back({r, v / diag_[k]});
        }
      }
    }
    for (auto& col : lower_) {
      for (MatrixEntry& e : col) e.row = perm_row_[e.row];
    }
    return true;
  }

  std::size_t fill() const {
    std::size_t total = diag_.size();
    for (const auto& col : lower_) total += col.size();
    for (const auto& col : upper_) total += col.size();
    return total;
  }

  void solve(std::vector<double>& b) const {
    std::vector<double> y(n_);
    for (std::size_t k = 0; k < n_; ++k) y[k] = b[inv_row_[k]];
    for (std::size_t k = 0; k < n_; ++k) {
      const double alpha = y[k];
      if (alpha == 0.0) continue;
      for (const MatrixEntry& e : lower_[k]) y[e.row] -= alpha * e.value;
    }
    for (std::size_t k = n_; k-- > 0;) {
      const double z = y[k] / diag_[k];
      y[k] = z;
      if (z == 0.0) continue;
      for (const MatrixEntry& e : upper_[k]) y[e.row] -= z * e.value;
    }
    for (std::size_t k = 0; k < n_; ++k) b[perm_col_[k]] = y[k];
  }

  void solve_transpose(std::vector<double>& c) const {
    std::vector<double> w(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      double acc = c[perm_col_[k]];
      for (const MatrixEntry& e : upper_[k]) acc -= e.value * w[e.row];
      w[k] = acc / diag_[k];
    }
    for (std::size_t k = n_; k-- > 0;) {
      double acc = w[k];
      for (const MatrixEntry& e : lower_[k]) acc -= e.value * w[e.row];
      w[k] = acc;
    }
    for (std::size_t k = 0; k < n_; ++k) c[inv_row_[k]] = w[k];
  }

 private:
  static constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
  std::size_t n_ = 0;
  std::vector<std::vector<MatrixEntry>> lower_;
  std::vector<std::vector<MatrixEntry>> upper_;
  std::vector<double> diag_;
  std::vector<std::size_t> perm_row_;
  std::vector<std::size_t> inv_row_;
  std::vector<std::size_t> perm_col_;
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Factor `a` with SparseLu and the dense-scan reference and require the
// same factor: equal fill and bitwise-equal solves and transpose solves
// for a few right-hand sides (dense random ones and unit vectors).
void expect_matches_dense_scan(const SparseColumns& a, std::uint64_t seed) {
  SparseLu lu;
  DenseScanLu reference;
  ASSERT_TRUE(lu.factor(a));
  ASSERT_TRUE(reference.factor(a));
  EXPECT_EQ(lu.fill(), reference.fill());

  const std::size_t n = a.size();
  Rng rng(seed);
  std::vector<std::vector<double>> rhs;
  for (int i = 0; i < 3; ++i) {
    std::vector<double> b(n);
    for (double& v : b) v = rng.uniform(-10.0, 10.0);
    rhs.push_back(std::move(b));
  }
  for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
    std::vector<double> e(n, 0.0);
    e[i] = 1.0;
    rhs.push_back(std::move(e));
  }
  for (const std::vector<double>& b : rhs) {
    std::vector<double> x = b;
    std::vector<double> x_ref = b;
    lu.solve(x);
    reference.solve(x_ref);
    EXPECT_TRUE(bitwise_equal(x, x_ref));
    std::vector<double> y = b;
    std::vector<double> y_ref = b;
    lu.solve_transpose(y);
    reference.solve_transpose(y_ref);
    EXPECT_TRUE(bitwise_equal(y, y_ref));
  }
}

TEST(SparseLu, IdentityRoundTrip) {
  const std::size_t n = 5;
  SparseColumns a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = {{i, 1.0}};
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  std::vector<double> b = {1, 2, 3, 4, 5};
  lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], i + 1.0, 1e-12);
}

TEST(SparseLu, NegatedIdentity) {
  // The all-slack simplex basis is -I.
  const std::size_t n = 4;
  SparseColumns a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = {{i, -1.0}};
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  std::vector<double> b = {2, 4, 6, 8};
  lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b[i], -2.0 * (i + 1.0), 1e-12);
  }
}

TEST(SparseLu, KnownDenseSystem) {
  // A = [[2,1],[1,3]], b = [5, 10] -> x = [1, 3].
  SparseColumns a(2);
  a[0] = {{0, 2.0}, {1, 1.0}};
  a[1] = {{0, 1.0}, {1, 3.0}};
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  std::vector<double> b = {5.0, 10.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(SparseLu, PermutationMatrix) {
  // Column j has a single 1 in row (j+1) mod n.
  const std::size_t n = 6;
  SparseColumns a(n);
  for (std::size_t j = 0; j < n; ++j) a[j] = {{(j + 1) % n, 1.0}};
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = static_cast<double>(i) - 2.5;
  std::vector<double> b = matvec(a, x_true);
  lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-12);
}

TEST(SparseLu, DetectsSingularMatrix) {
  SparseColumns a(3);
  a[0] = {{0, 1.0}, {1, 2.0}};
  a[1] = {{0, 2.0}, {1, 4.0}};  // 2 * column 0
  a[2] = {{2, 1.0}};
  SparseLu lu;
  EXPECT_FALSE(lu.factor(a));
  EXPECT_FALSE(lu.ok());
}

TEST(SparseLu, DetectsStructuralSingularity) {
  SparseColumns a(3);
  a[0] = {{0, 1.0}};
  a[1] = {{0, 2.0}};  // row 1 and 2 never touched
  a[2] = {{0, 3.0}};
  SparseLu lu;
  EXPECT_FALSE(lu.factor(a));
}

TEST(SparseLu, SolveBeforeFactorThrows) {
  SparseLu lu;
  std::vector<double> b = {1.0};
  EXPECT_THROW(lu.solve(b), Error);
  EXPECT_THROW(lu.solve_transpose(b), Error);
}

class SparseLuRandom : public ::testing::TestWithParam<int> {};

// Diagonal-dominant-ish sparse matrix: always nonsingular.
SparseColumns random_sparse(Rng& rng, std::size_t n) {
  SparseColumns a(n);
  for (std::size_t j = 0; j < n; ++j) {
    a[j].push_back({j, rng.uniform(2.0, 5.0) * (rng.bernoulli(0.5) ? 1 : -1)});
    const int extras = static_cast<int>(rng.uniform_int(0, 4));
    for (int t = 0; t < extras; ++t) {
      const std::size_t r = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      if (r != j) a[j].push_back({r, rng.uniform(-1.0, 1.0)});
    }
  }
  return a;
}

std::uint64_t random_seed(int param) {
  return static_cast<std::uint64_t>(param) * 2654435761ULL + 17;
}

TEST_P(SparseLuRandom, RandomSparseRoundTrip) {
  Rng rng(random_seed(GetParam()));
  const std::size_t n = 120;
  const SparseColumns a = random_sparse(rng, n);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));

  std::vector<double> x_true(n);
  for (double& v : x_true) v = rng.uniform(-10.0, 10.0);

  std::vector<double> b = matvec(a, x_true);
  lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-6);

  std::vector<double> c = matvec_transpose(a, x_true);
  lu.solve_transpose(c);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(c[i], x_true[i], 1e-6);

  expect_matches_dense_scan(a, random_seed(GetParam()));
}

TEST_P(SparseLuRandom, DuplicateEntriesMatchDenseScanBitwise) {
  // Split entries into duplicates, some of which cancel to exactly 0.0
  // before the last copy restores the value: such a row enters the
  // work vector's nonzero list twice.
  Rng rng(random_seed(GetParam()) + 1);
  SparseColumns a = random_sparse(rng, 120);
  for (auto& column : a) {
    const std::size_t entries = column.size();
    for (std::size_t i = 0; i < entries; ++i) {
      if (rng.bernoulli(0.5)) continue;
      const MatrixEntry e = column[i];
      column[i].value = 0.25 * e.value;
      column.push_back({e.row, -0.25 * e.value});
      column.push_back({e.row, e.value});
    }
  }
  expect_matches_dense_scan(a, random_seed(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseLuRandom, ::testing::Range(0, 12));

TEST(SparseLu, BidiagonalChainReachesEveryEarlierColumn) {
  // Lower bidiagonal with diagonal pivots, so L column j holds only row
  // j + 1, plus a corner entry A(0, n-1): the last column reaches pivotal
  // position 0 and, through the chain of L columns, every later position.
  const std::size_t n = 2000;
  Rng rng(7);
  SparseColumns a(n);
  for (std::size_t j = 0; j + 1 < n; ++j) {
    a[j] = {{j, rng.uniform(1.0, 1.1)}, {j + 1, rng.uniform(0.9, 1.0)}};
  }
  a[n - 1] = {{0, 1.0}, {n - 1, 2.0}};
  expect_matches_dense_scan(a, 7);

  // n diagonal entries, n - 1 L entries, and the last column's n - 1 U
  // entries: one per earlier position, so the reach covered all of them.
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  EXPECT_EQ(lu.fill(), 3 * n - 2);
}

TEST(SparseLu, ReachThroughFillOnly) {
  // Column 1 picks up row 2 as fill from L column 0, so L column 1 holds
  // row 2 although A(2, 1) == 0.  Column 3 reaches position 1 (row 1),
  // then position 2 only through that fill entry, then row 3.
  SparseColumns a(4);
  a[0] = {{0, 3.0}, {2, 1.0}};
  a[1] = {{0, 1.0}, {1, 4.0}};
  a[2] = {{2, 5.0}, {3, 0.5}};
  a[3] = {{1, 1.0}, {3, 2.0}};
  expect_matches_dense_scan(a, 11);

  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  const std::vector<double> x_true = {1.0, -2.0, 3.0, -4.0};
  std::vector<double> b = matvec(a, x_true);
  lu.solve(b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-12);
}

TEST(SparseLu, PivotTieGoesToFirstNonzeroRow) {
  // Column 0's rows 0 and 1 tie in magnitude; strict partial pivoting
  // takes row 0, the first to become nonzero, as the reference does.
  SparseColumns a(3);
  a[0] = {{0, 3.0}, {1, -3.0}};
  a[1] = {{1, 1.0}, {2, 7.0}};
  a[2] = {{0, 1.0}, {2, 1.0}};
  expect_matches_dense_scan(a, 17);
}

TEST(SparseLu, ReachedEntryCancellingToZeroIsSkipped) {
  // Column 2 reaches positions 0 and 1, but L column 0 cancels row 1 to
  // exactly 0.0 (1 - 2 * 0.5), so L column 1 must not be applied.
  SparseColumns a(3);
  a[0] = {{0, 2.0}, {1, 1.0}};
  a[1] = {{1, 4.0}, {2, 1.0}};
  a[2] = {{0, 2.0}, {1, 1.0}, {2, 3.0}};
  expect_matches_dense_scan(a, 13);

  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  const std::vector<double> x_true = {0.5, 1.5, -2.5};
  std::vector<double> b = matvec(a, x_true);
  lu.solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-12);
}

TEST(SparseLu, TransposeSolveMatchesForwardOnAsymmetricMatrix) {
  SparseColumns a(3);
  a[0] = {{0, 1.0}, {2, 4.0}};
  a[1] = {{1, 2.0}};
  a[2] = {{0, 3.0}, {2, 1.0}};
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  // A^T y = c with c = A^T [1,1,1]^T must return [1,1,1].
  std::vector<double> c = matvec_transpose(a, {1.0, 1.0, 1.0});
  lu.solve_transpose(c);
  for (double v : c) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(SparseLu, FillIsBoundedOnBandMatrix) {
  // Tridiagonal: fill should stay linear in n.
  const std::size_t n = 200;
  SparseColumns a(n);
  for (std::size_t j = 0; j < n; ++j) {
    a[j].push_back({j, 4.0});
    if (j > 0) a[j].push_back({j - 1, 1.0});
    if (j + 1 < n) a[j].push_back({j + 1, 1.0});
  }
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  EXPECT_LT(lu.fill(), 10 * n);
}

TEST(SparseLu, DuplicateEntriesAreSummed) {
  SparseColumns a(1);
  a[0] = {{0, 1.5}, {0, 0.5}};  // 2.0 total
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  std::vector<double> b = {4.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 2.0, 1e-12);
}

// ---------------------------------------------------------------------
// Reach solves.  SparseLu solves only over the reach of the right-hand
// side and gives every other position its zero image; the cases below
// pin that the result still matches the dense solve bit for bit.

// Solve `b` forward and transposed with both factors and require
// bitwise-equal results.
void expect_solves_bitwise_equal(SparseLu& lu, const DenseScanLu& reference,
                                 const std::vector<double>& b) {
  std::vector<double> x = b;
  std::vector<double> x_ref = b;
  lu.solve(x);
  reference.solve(x_ref);
  EXPECT_TRUE(bitwise_equal(x, x_ref));
  std::vector<double> y = b;
  std::vector<double> y_ref = b;
  lu.solve_transpose(y);
  reference.solve_transpose(y_ref);
  EXPECT_TRUE(bitwise_equal(y, y_ref));
}

SparseColumns diagonal(const std::vector<double>& d) {
  SparseColumns a(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) a[i] = {{i, d[i]}};
  return a;
}

// Mostly +0.0 with a few -0.0 entries and a few values.
std::vector<double> signed_zero_rhs(Rng& rng, std::size_t n) {
  std::vector<double> b(n, 0.0);
  for (double& v : b) {
    if (rng.bernoulli(0.2)) v = -0.0;
  }
  for (int t = 0; t < 3; ++t) {
    b[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] =
        rng.uniform(-5.0, 5.0);
  }
  return b;
}

TEST(SparseLuReach, NegativeZeroEntriesMatchDenseScan) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(random_seed(seed) + 3);
    const SparseColumns a = random_sparse(rng, 120);
    SparseLu lu;
    DenseScanLu reference;
    ASSERT_TRUE(lu.factor(a));
    ASSERT_TRUE(reference.factor(a));
    expect_solves_bitwise_equal(lu, reference, signed_zero_rhs(rng, 120));
    expect_solves_bitwise_equal(lu, reference, std::vector<double>(120, -0.0));
    std::vector<double> nan_rhs(120, 0.0);
    nan_rhs[static_cast<std::size_t>(rng.uniform_int(0, 119))] = std::nan("");
    expect_solves_bitwise_equal(lu, reference, nan_rhs);
  }
}

TEST(SparseLuReach, NegativeZeroSeedChangesTheSignOfItsSolution) {
  // On -I a -0.0 entry solves to +0.0 while a +0.0 entry solves to -0.0:
  // a -0.0 entry must be part of the reach.
  SparseLu lu;
  ASSERT_TRUE(lu.factor(diagonal({-1.0, -1.0, -1.0})));
  std::vector<double> b = {0.0, -0.0, 0.0};
  lu.solve(b);
  EXPECT_TRUE(std::signbit(b[0]));
  EXPECT_FALSE(std::signbit(b[1]));
  EXPECT_TRUE(std::signbit(b[2]));
}

TEST(SparseLuReach, ZeroValuedPositionStillMarksItsReaders) {
  // Pivots: position 0 = column 2 (row 2), position 1 = column 0 (row 0,
  // diagonal -2, L entry 0.5 at row 1), position 2 = column 1 (row 1).
  // The -0.0 in c reaches only position 2, whose value stays -0.0; the L^T
  // step of position 1 reads it and turns its own -0.0 into +0.0, so a
  // zero-valued position must still mark the positions that read it.
  SparseColumns a(3);
  a[0] = {{0, -2.0}, {1, -1.0}};
  a[1] = {{1, 3.0}, {2, 1.0}};
  a[2] = {{2, 1.0}};
  SparseLu lu;
  DenseScanLu reference;
  ASSERT_TRUE(lu.factor(a));
  ASSERT_TRUE(reference.factor(a));
  const std::vector<double> c = {0.0, -0.0, 0.0};
  expect_solves_bitwise_equal(lu, reference, c);
  std::vector<double> y = c;
  lu.solve_transpose(y);
  EXPECT_FALSE(std::signbit(y[0]));
}

TEST(SparseLuReach, AllPositiveZeroRhsTakesTheZeroImages) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(random_seed(seed) + 5);
    const SparseColumns a = random_sparse(rng, 120);
    SparseLu lu;
    DenseScanLu reference;
    ASSERT_TRUE(lu.factor(a));
    ASSERT_TRUE(reference.factor(a));
    expect_solves_bitwise_equal(lu, reference, std::vector<double>(120, 0.0));
  }
  // -I: every +0.0 position solves to -0.0, forward and transposed.
  SparseLu lu;
  ASSERT_TRUE(lu.factor(diagonal(std::vector<double>(5, -1.0))));
  std::vector<double> x(5, 0.0);
  lu.solve(x);
  std::vector<double> y(5, 0.0);
  lu.solve_transpose(y);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(std::signbit(x[i]) && x[i] == 0.0);
    EXPECT_TRUE(std::signbit(y[i]) && y[i] == 0.0);
  }
}

TEST(SparseLuReach, UnitRhsOnNegatedIdentityAndMixedSignDiagonal) {
  const std::vector<std::vector<double>> diagonals = {
      std::vector<double>(7, -1.0),
      {2.0, -3.0, 0.5, -0.25, 4.0, -1.0, 1.0}};
  for (const std::vector<double>& d : diagonals) {
    const SparseColumns a = diagonal(d);
    SparseLu lu;
    DenseScanLu reference;
    ASSERT_TRUE(lu.factor(a));
    ASSERT_TRUE(reference.factor(a));
    for (std::size_t i = 0; i < d.size(); ++i) {
      std::vector<double> e(d.size(), 0.0);
      e[i] = 1.0;
      expect_solves_bitwise_equal(lu, reference, e);
      e[i] = -1.0;
      expect_solves_bitwise_equal(lu, reference, e);
    }
  }
}

TEST(SparseLuReach, RepeatedSolvesRestoreTheScratch) {
  // One factor, many alternating forward and transpose solves: a solve
  // that left scratch behind would corrupt the next one.
  Rng rng(23);
  const std::size_t n = 150;
  const SparseColumns a = random_sparse(rng, n);
  SparseLu lu;
  DenseScanLu reference;
  ASSERT_TRUE(lu.factor(a));
  ASSERT_TRUE(reference.factor(a));
  std::vector<std::vector<double>> rhs;
  std::vector<double> dense(n);
  for (double& v : dense) v = rng.uniform(-10.0, 10.0);
  rhs.push_back(dense);
  for (std::size_t i : {std::size_t{0}, n / 3, n - 1}) {
    std::vector<double> e(n, 0.0);
    e[i] = 1.0;
    rhs.push_back(std::move(e));
  }
  rhs.push_back(std::vector<double>(n, 0.0));
  rhs.push_back(signed_zero_rhs(rng, n));
  for (int round = 0; round < 3; ++round) {
    for (const std::vector<double>& b : rhs) {
      expect_solves_bitwise_equal(lu, reference, b);
    }
    std::reverse(rhs.begin(), rhs.end());
  }
}

TEST(SparseLuReach, RefactorToAnotherSizeAndAfterASingularFactor) {
  SparseLu lu;
  Rng rng(29);
  for (std::size_t n : {std::size_t{120}, std::size_t{37}, std::size_t{260}}) {
    const SparseColumns a = random_sparse(rng, n);
    DenseScanLu reference;
    ASSERT_TRUE(lu.factor(a));
    ASSERT_TRUE(reference.factor(a));
    EXPECT_EQ(lu.dimension(), n);
    std::vector<double> e(n, 0.0);
    e[n / 2] = 1.0;
    expect_solves_bitwise_equal(lu, reference, e);
    expect_solves_bitwise_equal(lu, reference, signed_zero_rhs(rng, n));
  }

  // A factor that fails part-way leaves the object unusable until the
  // next successful factor, which solves like a fresh object.
  SparseColumns singular(4);
  singular[0] = {{0, 1.0}, {1, 2.0}};
  singular[1] = {{2, 1.0}};
  singular[2] = {{0, 2.0}, {1, 4.0}};  // 2 * column 0
  singular[3] = {{3, 1.0}};
  EXPECT_FALSE(lu.factor(singular));
  std::vector<double> b(4, 1.0);
  EXPECT_THROW(lu.solve(b), Error);
  EXPECT_THROW(lu.solve_transpose(b), Error);

  const SparseColumns a = random_sparse(rng, 90);
  DenseScanLu reference;
  ASSERT_TRUE(lu.factor(a));
  ASSERT_TRUE(reference.factor(a));
  std::vector<double> dense(90);
  for (double& v : dense) v = rng.uniform(-10.0, 10.0);
  expect_solves_bitwise_equal(lu, reference, dense);
  expect_solves_bitwise_equal(lu, reference, std::vector<double>(90, 0.0));
  expect_solves_bitwise_equal(lu, reference, signed_zero_rhs(rng, 90));
}

}  // namespace
}  // namespace cellstream::lp
