// Anti-cycling regressions for the progress-based stall counter.
//
// The original guard counted *consecutive degenerate pivots* and reset on
// any positive step length.  Beale-style cycles and, worse, alternating
// degenerate / tiny-step pivot patterns evade that counter forever.  The
// fix measures actual merit progress (phase-1 infeasibility or phase-2
// objective) and engages Bland's rule after `stall_limit` pivots without
// relative progress above `stall_progress_tol`.  These tests pin the
// classic cycling instances and the edge cases around degenerate optima.

#include "lp/simplex.hpp"

#include <gtest/gtest.h>

namespace cellstream::lp {
namespace {

// Beale (1955): the canonical example on which textbook Dantzig pricing
// cycles forever through six degenerate bases.  The optimum is -0.05 at
// x = (0.04, 0, 1, 0).
Problem beale_problem() {
  Problem p;
  const VarId x1 = p.add_variable(0.0, kInfinity, -0.75);
  const VarId x2 = p.add_variable(0.0, kInfinity, 150.0);
  const VarId x3 = p.add_variable(0.0, kInfinity, -0.02);
  const VarId x4 = p.add_variable(0.0, kInfinity, 6.0);
  p.add_row(-kInfinity, 0.0,
            {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  p.add_row(-kInfinity, 0.0,
            {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  p.add_row(-kInfinity, 1.0, {{x3, 1.0}});
  return p;
}

TEST(SimplexCycling, BealeExampleTerminatesAtOptimum) {
  const SimplexResult r = solve_lp(beale_problem());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-9);
  EXPECT_NEAR(r.x[0], 0.04, 1e-9);
  EXPECT_NEAR(r.x[2], 1.0, 1e-9);
}

TEST(SimplexCycling, BealeTerminatesUnderTinyStallLimit) {
  // With an aggressive stall limit Bland's rule engages almost at once;
  // the solve must still terminate at the same optimum (Bland's rule is
  // slower, never wrong).
  SimplexOptions opts;
  opts.stall_limit = 2;
  const SimplexResult r = solve_lp(beale_problem(), opts);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-9);
}

TEST(SimplexCycling, StallCounterIsNotResetByTinyImprovements) {
  // The evasion pattern the old counter missed: steps that are nonzero but
  // make no measurable progress must still count toward the stall limit.
  // We force the regime by setting the progress tolerance so high that
  // every pivot of a normal solve counts as stalled: the solve then runs
  // entirely under Bland's rule and must still reach the optimum.
  SimplexOptions opts;
  opts.stall_limit = 0;           // stall immediately ...
  opts.stall_progress_tol = 1e6;  // ... and never observe "progress"
  const SimplexResult r = solve_lp(beale_problem(), opts);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-9);
}

TEST(SimplexCycling, DegenerateOptimalTieTerminates) {
  // Multiple optimal bases: the objective is constant along an edge of the
  // feasible region and several ratio-test ties occur at the optimum.  Any
  // vertex of the optimal face is acceptable; termination is the point.
  Problem p;
  const VarId x = p.add_variable(0.0, kInfinity, -1.0);
  const VarId y = p.add_variable(0.0, kInfinity, -1.0);
  p.add_row(-kInfinity, 1.0, {{x, 1.0}, {y, 1.0}});
  p.add_row(-kInfinity, 1.0, {{x, 1.0}, {y, 1.0}});  // duplicate: degenerate
  p.add_row(-kInfinity, 1.0, {{x, 1.0}});
  p.add_row(-kInfinity, 1.0, {{y, 1.0}});
  const SimplexResult r = solve_lp(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-9);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-9);
}

TEST(SimplexEdgeCases, LoadBasisDimensionMismatchResetsToAllSlack) {
  // IncrementalSimplex::load_basis documents that a failed load leaves the
  // all-slack basis behind — including the dimension-mismatch path, which
  // must not keep whatever basis a previous solve left in place.
  Problem p;
  const VarId x = p.add_variable(0.0, 2.0, -1.0);
  const VarId y = p.add_variable(0.0, 2.0, -1.0);
  p.add_row(-kInfinity, 3.0, {{x, 1.0}, {y, 1.0}});
  IncrementalSimplex solver(p);
  const SimplexResult first = solver.solve();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  Basis stale;  // saved from a problem with one variable and zero rows
  stale.status = {VarStatus::kBasic};
  EXPECT_FALSE(solver.load_basis(stale));
  const SimplexResult again = solver.solve();
  ASSERT_EQ(again.status, SolveStatus::kOptimal);
  EXPECT_NEAR(again.objective, first.objective, 1e-9);
}

TEST(SimplexEdgeCases, SaveBasisRoundTripsWithoutResultCollection) {
  // A solve result carries no basis: the branch-and-bound workers
  // snapshot via save_basis() only when branching, so the snapshot must be
  // loadable and reproduce the optimum in a single pricing pass.
  Problem p;
  const VarId x = p.add_variable(0.0, 4.0, -1.0);
  const VarId y = p.add_variable(0.0, 4.0, -2.0);
  p.add_row(-kInfinity, 5.0, {{x, 1.0}, {y, 1.0}});
  IncrementalSimplex solver(p);
  const SimplexResult r = solver.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  const Basis snapshot = solver.save_basis();
  EXPECT_FALSE(snapshot.empty());

  IncrementalSimplex fresh(p);
  ASSERT_TRUE(fresh.load_basis(snapshot));
  const SimplexResult warm = fresh.solve();
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, r.objective, 1e-9);
  EXPECT_EQ(warm.iterations, 1u);  // already optimal: one pricing pass
}

}  // namespace
}  // namespace cellstream::lp
