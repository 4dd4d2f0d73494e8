// Stress and configuration-edge tests for the simplex engine: frequent
// refactorization, tiny eta budgets, Bland fallback, and consistency of
// the mapping LP relaxation against known feasible points.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/daggen.hpp"
#include "lp/simplex.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/milp_mapper.hpp"
#include "support/rng.hpp"

namespace cellstream::lp {
namespace {

Problem random_knapsack(std::uint64_t seed, int n) {
  Rng rng(seed);
  Problem p;
  std::vector<Coefficient> row;
  for (int i = 0; i < n; ++i) {
    const VarId v = p.add_variable(0.0, 1.0, -rng.uniform(1.0, 10.0));
    row.push_back({v, rng.uniform(1.0, 5.0)});
  }
  p.add_row(-kInfinity, rng.uniform(5.0, 15.0), row);
  return p;
}

TEST(SimplexStress, FrequentRefactorizationGivesIdenticalOptima) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem p = random_knapsack(seed, 20);
    SimplexOptions normal;
    SimplexOptions paranoid;
    paranoid.refactor_interval = 2;  // refactor after every other pivot
    const SimplexResult a = solve_lp(p, normal);
    const SimplexResult b = solve_lp(p, paranoid);
    ASSERT_EQ(a.status, SolveStatus::kOptimal);
    ASSERT_EQ(b.status, SolveStatus::kOptimal);
    EXPECT_NEAR(a.objective, b.objective, 1e-8) << "seed " << seed;
  }
}

TEST(SimplexStress, ImmediateBlandModeStillSolves) {
  SimplexOptions opts;
  opts.stall_limit = 0;  // every degenerate pivot triggers Bland's rule
  const Problem p = random_knapsack(3, 15);
  const SimplexResult normal = solve_lp(p);
  const SimplexResult bland = solve_lp(p, opts);
  ASSERT_EQ(bland.status, SolveStatus::kOptimal);
  EXPECT_NEAR(bland.objective, normal.objective, 1e-8);
}

TEST(SimplexStress, TinyIterationLimitReportsLimit) {
  // The mapping relaxation needs far more than 3 iterations.
  gen::DagGenParams params;
  params.task_count = 15;
  TaskGraph g = gen::daggen_random(params);
  gen::set_ccr(g, 1.0);
  SteadyStateAnalysis analysis(std::move(g), platforms::qs22_single_cell());
  const Problem p = mapping::build_formulation(analysis).problem;
  SimplexOptions opts;
  opts.max_iterations = 3;
  EXPECT_EQ(solve_lp(p, opts).status, SolveStatus::kIterationLimit);
}

TEST(SimplexStress, MappingRelaxationLowerBoundsEveryFeasibleMapping) {
  // The LP relaxation's optimum must be <= the period of every concrete
  // feasible mapping (whose encoding is an LP-feasible point).
  gen::DagGenParams params;
  params.task_count = 16;
  params.seed = 4;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 1.0);
  SteadyStateAnalysis analysis(std::move(graph),
                               platforms::qs22_single_cell());
  const mapping::Formulation f = mapping::build_formulation(analysis);
  const SimplexResult relaxation = solve_lp(f.problem);
  ASSERT_EQ(relaxation.status, SolveStatus::kOptimal);
  for (const char* name : {"ppe-only", "greedy-cpu", "greedy-mem"}) {
    const Mapping m = mapping::run_heuristic(name, analysis);
    if (!analysis.feasible(m)) continue;
    EXPECT_LE(relaxation.objective, analysis.period(m) + 1e-9) << name;
  }
}

// Fix an integral alpha through bounds: the routing columns are then
// forced to the products of alphas, so the LP optimum is the mapping's
// period (the justification for alpha-only branching).
void expect_routing_exact(const SteadyStateAnalysis& analysis,
                          const Mapping& m, const char* what) {
  const std::vector<std::string> violations = analysis.violations(m);
  ASSERT_TRUE(violations.empty()) << what << ": " << violations.front();
  mapping::Formulation f = mapping::build_formulation(analysis);
  const std::size_t n = analysis.platform().pe_count();
  for (TaskId k = 0; k < m.task_count(); ++k) {
    for (PeId i = 0; i < n; ++i) {
      const double v = m.pe_of(k) == i ? 1.0 : 0.0;
      f.problem.set_variable_bounds(f.alpha[k][i], v, v);
    }
  }
  const SimplexResult r = solve_lp(f.problem);
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << what;
  const double period = analysis.period(m);
  EXPECT_NEAR(r.objective, period, 1e-9 * period) << what;
}

TEST(SimplexStress, RoutingExactOnceAlphaFixed) {
  TaskGraph trio("trio");
  Task t;
  t.wppe = 1e-3;
  t.wspe = 0.5e-3;
  trio.add_task(t);
  trio.add_task(t);
  trio.add_task(t);
  trio.add_edge(0, 1, 2048.0);
  trio.add_edge(1, 2, 2048.0);
  Mapping spread(3, 0);
  spread.assign(1, 1);
  spread.assign(2, 2);
  expect_routing_exact(
      SteadyStateAnalysis(trio, platforms::qs22_with_spes(2)), spread,
      "trio");

  gen::DagGenParams params;
  params.task_count = 12;
  params.seed = 5;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 1.5);
  const struct {
    const char* name;
    CellPlatform platform;
    BufferPolicy policy;
  } cases[] = {
      {"single chip", platforms::qs22_single_cell(), BufferPolicy::kDuplicated},
      {"shared buffers", platforms::qs22_single_cell(),
       BufferPolicy::kSharedColocated},
      {"dual cell", platforms::qs22_dual_cell(), BufferPolicy::kDuplicated},
  };
  for (const auto& c : cases) {
    const SteadyStateAnalysis analysis(graph, c.platform, c.policy);
    for (const char* name : {"greedy-mem", "greedy-cpu", "greedy-period"}) {
      const Mapping m = mapping::run_heuristic(name, analysis);
      expect_routing_exact(analysis, m,
                           (std::string(c.name) + ", " + name).c_str());
    }
    // One task per PE in turn, so that most edges cross PEs (and, on the
    // dual cell, chips); a task whose buffers would overflow its SPE's
    // local store stays on the first PPE.
    const double budget = static_cast<double>(c.platform.buffer_budget());
    std::vector<double> used(c.platform.pe_count(), 0.0);
    Mapping round_robin(graph.task_count(), 0);
    for (TaskId k = 0; k < graph.task_count(); ++k) {
      const PeId pe = static_cast<PeId>(k % c.platform.pe_count());
      const double bytes =
          c.platform.is_spe(pe) ? analysis.task_buffer_bytes(k) : 0.0;
      if (used[pe] + bytes > budget) continue;
      used[pe] += bytes;
      round_robin.assign(k, pe);
    }
    expect_routing_exact(analysis, round_robin,
                         (std::string(c.name) + ", round robin").c_str());
  }
}

TEST(SimplexStress, RepeatedWarmResolvesOnMappingLp) {
  gen::DagGenParams params;
  params.task_count = 12;
  params.seed = 9;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 0.775);
  SteadyStateAnalysis analysis(std::move(graph),
                               platforms::qs22_with_spes(4));
  const mapping::Formulation f = mapping::build_formulation(analysis);
  IncrementalSimplex solver(f.problem);
  const SimplexResult root = solver.solve();
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  Rng rng(17);
  for (int trial = 0; trial < 15; ++trial) {
    // Fix a random alpha to 1 (with its group to 0), re-solve, undo.
    const TaskId k = static_cast<TaskId>(rng.uniform_int(0, 11));
    const PeId pe = static_cast<PeId>(rng.uniform_int(0, 4));
    for (PeId i = 0; i < 5; ++i) {
      const double v = i == pe ? 1.0 : 0.0;
      solver.set_variable_bounds(f.alpha[k][i], v, v);
    }
    const SimplexResult fixed = solver.solve();
    if (fixed.status == SolveStatus::kOptimal) {
      EXPECT_GE(fixed.objective, root.objective - 1e-9);
    }
    for (PeId i = 0; i < 5; ++i) {
      solver.set_variable_bounds(f.alpha[k][i], 0.0, 1.0);
    }
    const SimplexResult relaxed = solver.solve();
    ASSERT_EQ(relaxed.status, SolveStatus::kOptimal);
    EXPECT_NEAR(relaxed.objective, root.objective,
                1e-7 * (1.0 + std::abs(root.objective)));
  }
}

}  // namespace
}  // namespace cellstream::lp
