#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "support/rng.hpp"

namespace cellstream::lp {
namespace {

TEST(Simplex, TrivialBoundsOnlyMinimization) {
  Problem p;
  p.add_variable(2.0, 5.0, 1.0);   // pushed to lower bound
  p.add_variable(-3.0, 4.0, -1.0); // pushed to upper bound
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 4.0, 1e-8);
  EXPECT_NEAR(r.objective, -2.0, 1e-8);
}

TEST(Simplex, ClassicTwoVariableLp) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
  // (Dantzig's example; optimum x=2, y=6, value 36.)
  Problem p;
  const VarId x = p.add_variable(0, kInfinity, -3.0);
  const VarId y = p.add_variable(0, kInfinity, -5.0);
  p.add_row(-kInfinity, 4.0, {{x, 1.0}});
  p.add_row(-kInfinity, 12.0, {{y, 2.0}});
  p.add_row(-kInfinity, 18.0, {{x, 3.0}, {y, 2.0}});
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
  EXPECT_NEAR(r.x[y], 6.0, 1e-8);
  EXPECT_NEAR(r.objective, -36.0, 1e-8);
}

TEST(Simplex, EqualityConstraintNeedsPhase1) {
  // min x + 2y st x + y = 10, x <= 4  ->  x=4, y=6, obj 16.
  Problem p;
  const VarId x = p.add_variable(0, 4.0, 1.0);
  const VarId y = p.add_variable(0, kInfinity, 2.0);
  p.add_row(10.0, 10.0, {{x, 1.0}, {y, 1.0}});
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 4.0, 1e-8);
  EXPECT_NEAR(r.x[y], 6.0, 1e-8);
  EXPECT_NEAR(r.objective, 16.0, 1e-8);
  EXPECT_GT(r.phase1_iterations, 0u);
}

TEST(Simplex, GreaterEqualRow) {
  // min x st x >= 7.5
  Problem p;
  const VarId x = p.add_variable(0, kInfinity, 1.0);
  p.add_row(7.5, kInfinity, {{x, 1.0}});
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 7.5, 1e-8);
}

TEST(Simplex, RangedRow) {
  // min -x st 2 <= x <= 3 expressed as a ranged row on a wide variable.
  Problem p;
  const VarId x = p.add_variable(0, 100.0, -1.0);
  p.add_row(2.0, 3.0, {{x, 1.0}});
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 3.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p;
  const VarId x = p.add_variable(0, 1.0, 0.0);
  p.add_row(5.0, kInfinity, {{x, 1.0}});  // x >= 5 impossible
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsConflictingRows) {
  Problem p;
  const VarId x = p.add_variable(-kInfinity, kInfinity, 0.0);
  p.add_row(4.0, 4.0, {{x, 1.0}});
  p.add_row(5.0, 5.0, {{x, 1.0}});
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p;
  const VarId x = p.add_variable(0, kInfinity, -1.0);  // min -x, x free up
  p.add_row(0.0, kInfinity, {{x, 1.0}});
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, FreeVariable) {
  // min (x - 3)^L1-ish: min y st y >= x - 3, y >= 3 - x, x free -> 0 at x=3.
  Problem p;
  const VarId x = p.add_variable(-kInfinity, kInfinity, 0.0);
  const VarId y = p.add_variable(-kInfinity, kInfinity, 1.0);
  p.add_row(-3.0, kInfinity, {{y, 1.0}, {x, -1.0}});  // y - x >= -3
  p.add_row(3.0, kInfinity, {{y, 1.0}, {x, 1.0}});    // y + x >= 3
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-8);
  EXPECT_NEAR(r.x[x], 3.0, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant rows through the same vertex.
  Problem p;
  const VarId x = p.add_variable(0, kInfinity, -1.0);
  const VarId y = p.add_variable(0, kInfinity, -1.0);
  for (int i = 0; i < 10; ++i) {
    p.add_row(-kInfinity, 1.0, {{x, 1.0}, {y, 1.0}});
  }
  p.add_row(-kInfinity, 1.0, {{x, 1.0}});
  p.add_row(-kInfinity, 1.0, {{y, 1.0}});
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-8);
}

TEST(Simplex, FixedVariableIsRespected) {
  Problem p;
  const VarId x = p.add_variable(2.0, 2.0, -10.0);
  const VarId y = p.add_variable(0.0, 5.0, 1.0);
  p.add_row(3.0, kInfinity, {{x, 1.0}, {y, 1.0}});
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 2.0, 1e-9);
  EXPECT_NEAR(r.x[y], 1.0, 1e-8);
}

// Fractional-knapsack LPs have a closed-form optimum (greedy by ratio):
// a sharp randomized check of upper-bounded variable handling.
class KnapsackLp : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackLp, MatchesGreedyOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 12;
  std::vector<double> value(n), weight(n);
  for (int i = 0; i < n; ++i) {
    value[i] = rng.uniform(1.0, 10.0);
    weight[i] = rng.uniform(1.0, 5.0);
  }
  const double capacity = rng.uniform(5.0, 20.0);

  Problem p;
  std::vector<Coefficient> row;
  for (int i = 0; i < n; ++i) {
    p.add_variable(0.0, 1.0, -value[i]);  // maximize value
    row.push_back({static_cast<VarId>(i), weight[i]});
  }
  p.add_row(-kInfinity, capacity, row);
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);

  // Greedy fractional optimum.
  std::vector<int> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](int a, int b) {
    return value[a] / weight[a] > value[b] / weight[b];
  });
  double remaining = capacity, best = 0.0;
  for (int i : idx) {
    const double take = std::min(1.0, remaining / weight[i]);
    best += take * value[i];
    remaining -= take * weight[i];
    if (remaining <= 0) break;
  }
  EXPECT_NEAR(-r.objective, best, 1e-6);
  EXPECT_LE(p.max_violation(r.x), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackLp, ::testing::Range(0, 20));

// Assignment LPs have integral optima equal to the best permutation;
// exercises equality rows, phase 1 and degeneracy.
class AssignmentLp : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentLp, MatchesBestPermutation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = 4;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.uniform(0.0, 10.0);
  }

  Problem p;
  std::vector<std::vector<VarId>> var(n, std::vector<VarId>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      var[i][j] = p.add_variable(0.0, 1.0, cost[i][j]);
    }
  }
  for (int i = 0; i < n; ++i) {
    std::vector<Coefficient> row_r, row_c;
    for (int j = 0; j < n; ++j) {
      row_r.push_back({var[i][j], 1.0});
      row_c.push_back({var[j][i], 1.0});
    }
    p.add_row(1.0, 1.0, row_r);
    p.add_row(1.0, 1.0, row_c);
  }
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);

  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = kInfinity;
  do {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += cost[i][perm[i]];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_NEAR(r.objective, best, 1e-6);
  EXPECT_LE(p.max_violation(r.x), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentLp, ::testing::Range(0, 20));

TEST(IncrementalSimplex, ResolveAfterBoundChange) {
  // min -x - y st x + y <= 10, 0 <= x,y <= 8.
  Problem p;
  const VarId x = p.add_variable(0, 8, -1.0);
  const VarId y = p.add_variable(0, 8, -1.0);
  p.add_row(-kInfinity, 10.0, {{x, 1.0}, {y, 1.0}});

  IncrementalSimplex solver(p);
  SimplexResult r1 = solver.solve();
  ASSERT_EQ(r1.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r1.objective, -10.0, 1e-8);

  // Fix x = 1 (like a branch-and-bound node) and re-solve.
  solver.set_variable_bounds(x, 1.0, 1.0);
  SimplexResult r2 = solver.solve();
  ASSERT_EQ(r2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r2.x[x], 1.0, 1e-9);
  EXPECT_NEAR(r2.objective, -9.0, 1e-8);

  // Relax it again.
  solver.set_variable_bounds(x, 0.0, 8.0);
  SimplexResult r3 = solver.solve();
  ASSERT_EQ(r3.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r3.objective, -10.0, 1e-8);
}

TEST(IncrementalSimplex, RepeatedResolvesStayConsistent) {
  Rng rng(99);
  Problem p;
  const int n = 6;
  for (int i = 0; i < n; ++i) p.add_variable(0.0, 1.0, rng.uniform(-5, 5));
  for (int r = 0; r < 4; ++r) {
    std::vector<Coefficient> row;
    for (int i = 0; i < n; ++i) row.push_back({static_cast<VarId>(i), rng.uniform(0, 3)});
    p.add_row(-kInfinity, rng.uniform(1, 4), row);
  }
  IncrementalSimplex solver(p);
  const double base = solver.solve().objective;
  for (int trial = 0; trial < 30; ++trial) {
    const VarId v = static_cast<VarId>(rng.uniform_int(0, n - 1));
    const double fix = rng.bernoulli(0.5) ? 1.0 : 0.0;
    solver.set_variable_bounds(v, fix, fix);
    const SimplexResult fixed = solver.solve();
    if (fixed.status == SolveStatus::kOptimal) {
      EXPECT_GE(fixed.objective, base - 1e-7);  // restriction can't improve
    }
    solver.set_variable_bounds(v, 0.0, 1.0);
    const SimplexResult relaxed = solver.solve();
    ASSERT_EQ(relaxed.status, SolveStatus::kOptimal);
    EXPECT_NEAR(relaxed.objective, base, 1e-6);
  }
}

TEST(IncrementalSimplex, LoadBasisRoundTrip) {
  Problem p;
  const VarId x = p.add_variable(0, 4, -1.0);
  p.add_row(-kInfinity, 3.0, {{x, 1.0}});
  IncrementalSimplex solver(p);
  const SimplexResult r = solver.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_TRUE(solver.load_basis(solver.save_basis()));
  const SimplexResult again = solver.solve();
  EXPECT_EQ(again.status, SolveStatus::kOptimal);
  EXPECT_NEAR(again.objective, r.objective, 1e-9);
  EXPECT_EQ(again.iterations, 1u);  // already optimal: one pricing pass
}

TEST(IncrementalSimplex, LoadBasisRejectsWrongShape) {
  Problem p;
  p.add_variable(0, 1, 0);
  IncrementalSimplex solver(p);
  Basis junk;
  junk.status = {VarStatus::kBasic};
  junk.basic_col = {0, 1, 2};
  EXPECT_FALSE(solver.load_basis(junk));
  EXPECT_EQ(solver.solve().status, SolveStatus::kOptimal);
}

Problem dantzig_example() {
  Problem p;
  const VarId x = p.add_variable(0, kInfinity, -3.0);
  const VarId y = p.add_variable(0, kInfinity, -5.0);
  p.add_row(-kInfinity, 4.0, {{x, 1.0}});
  p.add_row(-kInfinity, 12.0, {{y, 2.0}});
  p.add_row(-kInfinity, 18.0, {{x, 3.0}, {y, 2.0}});
  return p;
}

TEST(SimplexOptions, RejectsNonFiniteOrNegativeTolerances) {
  const Problem p = dantzig_example();
  const double bad[] = {-1e-9, -kInfinity, kInfinity, std::nan("")};
  for (double v : bad) {
    SimplexOptions o;
    o.feasibility_tol = v;
    EXPECT_THROW((IncrementalSimplex{p, o}), Error) << "feasibility_tol " << v;
    o = {};
    o.optimality_tol = v;
    EXPECT_THROW((IncrementalSimplex{p, o}), Error) << "optimality_tol " << v;
    o = {};
    o.stall_progress_tol = v;
    EXPECT_THROW((IncrementalSimplex{p, o}), Error)
        << "stall_progress_tol " << v;
    EXPECT_THROW(solve_lp(p, o), Error);
  }
}

TEST(SimplexOptions, RejectsNonPositivePivotTolerance) {
  const Problem p = dantzig_example();
  for (double v : {0.0, -0.0, -1e-8, kInfinity, std::nan("")}) {
    SimplexOptions o;
    o.pivot_tol = v;
    EXPECT_THROW((IncrementalSimplex{p, o}), Error) << "pivot_tol " << v;
  }
}

TEST(SimplexOptions, AcceptsZeroTolerancesAndEagerBland) {
  // Zero tolerances are legal: a reduced cost of exactly 0 still never
  // enters, so the solve ends at an optimum.  So are stall_limit = 0
  // (Bland's rule after any pivot without progress) and the smallest
  // useful refactor interval.
  SimplexOptions o;
  o.feasibility_tol = 0.0;
  o.optimality_tol = 0.0;
  o.stall_progress_tol = 0.0;
  o.pivot_tol = 1e-300;
  o.stall_limit = 0;
  o.refactor_interval = 2;
  const SimplexResult r = solve_lp(dantzig_example(), o);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -36.0, 1e-8);
}

TEST(SimplexOptions, ZeroOptimalityToleranceStopsOnATiedOptimum) {
  // max x + y  st  x + y <= 1: a whole edge is optimal, and at the first
  // optimal vertex the other variable prices out at exactly 0.
  Problem p;
  const VarId x = p.add_variable(0, kInfinity, -1.0);
  const VarId y = p.add_variable(0, kInfinity, -1.0);
  p.add_row(-kInfinity, 1.0, {{x, 1.0}, {y, 1.0}});
  SimplexOptions o;
  o.optimality_tol = 0.0;
  const SimplexResult r = solve_lp(p, o);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-12);
  EXPECT_EQ(r.iterations, 2u);  // one pivot, then the optimality check
}

}  // namespace
}  // namespace cellstream::lp
