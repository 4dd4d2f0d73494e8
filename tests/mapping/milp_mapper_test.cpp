#include "mapping/milp_mapper.hpp"

#include <gtest/gtest.h>

#include "gen/daggen.hpp"
#include "mapping/exhaustive.hpp"
#include "mapping/heuristics.hpp"

namespace cellstream::mapping {
namespace {

Task make_task(double wppe, double wspe, int peek = 0) {
  Task t;
  t.wppe = wppe;
  t.wspe = wspe;
  t.peek = peek;
  return t;
}

TEST(Formulation, HasExpectedShape) {
  TaskGraph g("pair");
  g.add_task(make_task(1e-3, 1e-3));
  g.add_task(make_task(1e-3, 1e-3));
  g.add_edge(0, 1, 1024.0);
  const CellPlatform p = platforms::qs22_with_spes(2);  // n = 3
  const SteadyStateAnalysis ss(g, p);
  const Formulation f = build_formulation(ss);
  // 1 period + K*n alpha + |E|*n co-location columns on one chip; (1k)
  // adds no columns.
  EXPECT_EQ(f.problem.variable_count(), 1u + 2 * 3 + 1 * 3);
  EXPECT_EQ(f.alpha.size(), 2u);
  EXPECT_EQ(f.alpha[0].size(), 3u);
  ASSERT_EQ(f.colocated.size(), 1u);
  EXPECT_EQ(f.colocated[0].size(), 3u);
  EXPECT_TRUE(f.same_chip[0].empty());
  // (1b) K + co-location 2n|E| + compute n + bandwidth 2n + (1i) per SPE
  // + (1j) per SPE.
  EXPECT_EQ(f.problem.row_count(), 2u + 2 * 3 + 3 + 2 * 3 + 2 + 2);
}

TEST(Formulation, EncodedMappingIsLpFeasibleWithPeriodObjective) {
  const TaskGraph g = [&] {
    TaskGraph graph("three");
    graph.add_task(make_task(2e-3, 1e-3));
    graph.add_task(make_task(1e-3, 3e-3));
    graph.add_task(make_task(1e-3, 1e-3, 1));
    graph.add_edge(0, 1, 4096.0);
    graph.add_edge(1, 2, 2048.0);
    return graph;
  }();
  const CellPlatform p = platforms::qs22_with_spes(2);
  const SteadyStateAnalysis ss(g, p);
  const Formulation f = build_formulation(ss);

  Mapping m(3, 0);
  m.assign(1, 1);
  m.assign(2, 2);
  const std::vector<double> x = encode_mapping(f, ss, m);
  EXPECT_LE(f.problem.max_violation(x), 1e-9);
  EXPECT_NEAR(f.problem.objective_value(x), ss.period(m), 1e-12);
  EXPECT_EQ(extract_mapping(f, x), m);
}

TEST(Formulation, InfeasibleMappingViolatesEncodedConstraints) {
  // A mapping that overflows a SPE local store must violate row (1i).
  TaskGraph g("heavy");
  g.add_task(make_task(1e-3, 1e-3));
  g.add_task(make_task(1e-3, 1e-3));
  g.add_edge(0, 1, 200.0 * 1024.0);  // 400 kB buffer
  const CellPlatform p = platforms::qs22_with_spes(2);
  const SteadyStateAnalysis ss(g, p);
  const Formulation f = build_formulation(ss);
  Mapping m(2, 1);  // both tasks on SPE0
  const std::vector<double> x = encode_mapping(f, ss, m);
  EXPECT_GT(f.problem.max_violation(x), 0.1);
}

// The headline correctness property: the MILP mapper (at gap 0) matches
// the exhaustive optimum on small random instances.
class MilpVsExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(MilpVsExhaustive, PeriodsAgree) {
  gen::DagGenParams params;
  params.task_count = 6;
  params.fat = 0.5;
  params.seed = static_cast<std::uint64_t>(GetParam()) * 7 + 1;
  // Make communication matter: large payloads.
  params.data_min = 16.0 * 1024;
  params.data_max = 64.0 * 1024;
  const TaskGraph g = gen::daggen_random(params);
  const CellPlatform p = platforms::qs22_with_spes(2);  // n = 3
  const SteadyStateAnalysis ss(g, p);

  const auto brute = exhaustive_optimal_mapping(ss);
  ASSERT_TRUE(brute.has_value());

  MilpMapperOptions opts;
  opts.milp.relative_gap = 0.0;
  const MilpMapperResult milp = solve_optimal_mapping(ss, opts);
  EXPECT_EQ(milp.status, milp::Status::kOptimal);
  EXPECT_NEAR(milp.period, brute->period, 1e-6 * brute->period)
      << "MILP " << milp.mapping.to_string(p) << " vs brute "
      << brute->mapping.to_string(p);
  EXPECT_TRUE(ss.feasible(milp.mapping));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpVsExhaustive, ::testing::Range(0, 8));

TEST(MilpMapper, NeverWorseThanAnyHeuristic) {
  gen::DagGenParams params;
  params.task_count = 20;
  params.seed = 77;
  const TaskGraph g = gen::daggen_random(params);
  const CellPlatform p = platforms::playstation3();
  const SteadyStateAnalysis ss(g, p);

  MilpMapperOptions opts;
  opts.milp.relative_gap = 0.05;
  opts.milp.time_limit_seconds = 30.0;
  const MilpMapperResult result = solve_optimal_mapping(ss, opts);

  for (const char* name :
       {"greedy-mem", "greedy-cpu", "ppe-only", "greedy-period"}) {
    const Mapping m = run_heuristic(name, ss);
    if (!ss.feasible(m)) continue;
    EXPECT_LE(result.period, ss.period(m) * (1.0 + 1e-9)) << name;
  }
}

TEST(MilpMapper, RespectsHardConstraints) {
  gen::DagGenParams params;
  params.task_count = 25;
  params.seed = 3;
  params.data_min = 8.0 * 1024;
  params.data_max = 48.0 * 1024;
  const TaskGraph g = gen::daggen_random(params);
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  MilpMapperOptions opts;
  opts.milp.time_limit_seconds = 15.0;  // incumbent quality suffices here
  const MilpMapperResult result = solve_optimal_mapping(ss, opts);
  EXPECT_TRUE(ss.feasible(result.mapping))
      << result.mapping.to_string(p);
}

TEST(MilpMapper, GapIsReported) {
  gen::DagGenParams params;
  params.task_count = 15;
  params.seed = 11;
  const TaskGraph g = gen::daggen_random(params);
  const SteadyStateAnalysis ss(g, platforms::qs22_with_spes(4));
  MilpMapperOptions opts;
  opts.milp.relative_gap = 0.05;
  // Generous cap: the assertion is that the gap is reported correctly on
  // a proven-optimal run, and instrumented builds (TSan) run the solve
  // several times slower than the ~15 s it takes uninstrumented.
  opts.milp.time_limit_seconds = 300.0;
  const MilpMapperResult result = solve_optimal_mapping(ss, opts);
  ASSERT_EQ(result.status, milp::Status::kOptimal);
  EXPECT_LE(result.gap, 0.05 + 1e-9);
  EXPECT_GT(result.best_bound, 0.0);
  EXPECT_LE(result.best_bound, result.period + 1e-12);
}

TEST(MilpMapper, SingleTaskGoesToItsFasterPe) {
  TaskGraph g("solo");
  g.add_task(make_task(/*wppe=*/4e-3, /*wspe=*/1e-3));
  const CellPlatform p = platforms::qs22_with_spes(2);
  const SteadyStateAnalysis ss(g, p);
  MilpMapperOptions opts;
  opts.milp.relative_gap = 0.0;
  const MilpMapperResult result = solve_optimal_mapping(ss, opts);
  EXPECT_TRUE(p.is_spe(result.mapping.pe_of(0)));
  EXPECT_NEAR(result.period, 1e-3, 1e-9);
}

TEST(MilpMapper, ZeroSpesForcesPpe) {
  TaskGraph g("duo");
  g.add_task(make_task(1e-3, 0.1e-3));
  g.add_task(make_task(1e-3, 0.1e-3));
  g.add_edge(0, 1, 512.0);
  const CellPlatform p = platforms::qs22_with_spes(0);
  const SteadyStateAnalysis ss(g, p);
  const MilpMapperResult result = solve_optimal_mapping(ss);
  EXPECT_EQ(result.mapping.pe_of(0), 0u);
  EXPECT_EQ(result.mapping.pe_of(1), 0u);
  EXPECT_NEAR(result.period, 2e-3, 1e-9);
}

// The local-search counts cover the seeds and every LP rounding; the
// B&B commits the same roundings at any thread count, so the counts are
// equal too.
TEST(MilpMapper, MappingEvaluationsIndependentOfThreads) {
  gen::DagGenParams params;
  params.task_count = 15;
  params.seed = 2;
  TaskGraph g = gen::daggen_random(params);
  gen::set_ccr(g, 0.775);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  MilpMapperOptions opts;
  opts.milp.relative_gap = 0.0;  // a tree with LP roundings
  opts.milp.time_limit_seconds = 3600.0;
  const MilpMapperResult one = solve_optimal_mapping(ss, opts.with_threads(1));
  const MilpMapperResult four = solve_optimal_mapping(ss, opts.with_threads(4));
  EXPECT_GT(one.stats.callback_candidates, 0u);
  EXPECT_GT(one.mapping_evaluations, 0u);
  EXPECT_EQ(one.mapping_evaluations, four.mapping_evaluations);
  EXPECT_EQ(one.mapping_candidates, four.mapping_candidates);
  EXPECT_GT(one.mapping_candidates, one.mapping_evaluations);
  EXPECT_EQ(one.nodes, four.nodes);
  EXPECT_GT(one.polish_seconds, 0.0);
  EXPECT_GT(four.polish_seconds, 0.0);
}

TEST(Exhaustive, RejectsHugeSearchSpaces) {
  gen::DagGenParams params;
  params.task_count = 40;
  const TaskGraph g = gen::daggen_random(params);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  EXPECT_THROW(exhaustive_optimal_mapping(ss), Error);
}

TEST(Exhaustive, FindsTheObviousOptimum) {
  TaskGraph g("solo");
  g.add_task(make_task(4e-3, 1e-3));
  const SteadyStateAnalysis ss(g, platforms::qs22_with_spes(1));
  const auto result = exhaustive_optimal_mapping(ss);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->period, 1e-3, 1e-12);
}

}  // namespace
}  // namespace cellstream::mapping
