#include "mapping/annealing.hpp"

#include <gtest/gtest.h>

#include "gen/daggen.hpp"
#include "mapping/exhaustive.hpp"
#include "mapping/heuristics.hpp"

namespace cellstream::mapping {
namespace {

SteadyStateAnalysis make_analysis(std::uint64_t seed, std::size_t tasks = 18) {
  gen::DagGenParams params;
  params.task_count = tasks;
  params.seed = seed;
  TaskGraph g = gen::daggen_random(params);
  gen::set_ccr(g, 1.0);
  return SteadyStateAnalysis(std::move(g), platforms::qs22_single_cell());
}

TEST(Annealing, NeverWorseThanItsStart) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SteadyStateAnalysis ss = make_analysis(seed);
    Mapping start = greedy_cpu(ss);
    if (!ss.feasible(start)) start = ppe_only(ss);
    AnnealingOptions opts;
    opts.iterations = 4000;
    opts.seed = seed;
    const Mapping result = anneal_mapping(ss, start, opts);
    EXPECT_LE(ss.period(result), ss.period(start) + 1e-15) << seed;
    EXPECT_TRUE(ss.feasible(result));
  }
}

TEST(Annealing, DeterministicForFixedSeed) {
  const SteadyStateAnalysis ss = make_analysis(3);
  AnnealingOptions opts;
  opts.iterations = 2000;
  opts.seed = 99;
  const Mapping a = annealing_heuristic(ss, opts);
  const Mapping b = annealing_heuristic(ss, opts);
  EXPECT_EQ(a, b);
}

TEST(Annealing, ImprovesAPpeOnlyStartSubstantially) {
  const SteadyStateAnalysis ss = make_analysis(7, 24);
  const Mapping start = ppe_only(ss);
  AnnealingOptions opts;
  opts.iterations = 8000;
  const Mapping result = anneal_mapping(ss, start, opts);
  EXPECT_LT(ss.period(result), 0.8 * ss.period(start));
}

TEST(Annealing, ApproachesExhaustiveOptimumOnTinyInstances) {
  gen::DagGenParams params;
  params.task_count = 6;
  int hits = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    params.seed = seed;
    TaskGraph g = gen::daggen_random(params);
    gen::set_ccr(g, 1.0);
    const SteadyStateAnalysis ss(g, platforms::qs22_with_spes(2));
    const auto brute = exhaustive_optimal_mapping(ss);
    ASSERT_TRUE(brute.has_value());
    AnnealingOptions opts;
    opts.iterations = 5000;
    opts.seed = seed;
    const Mapping result = annealing_heuristic(ss, opts);
    EXPECT_GE(ss.period(result), brute->period - 1e-12);
    if (ss.period(result) <= brute->period * 1.02) ++hits;
  }
  EXPECT_GE(hits, 4);  // finds (near-)optimal on most tiny instances
}

TEST(Annealing, ValidatesArguments) {
  const SteadyStateAnalysis ss = make_analysis(1, 8);
  AnnealingOptions opts;
  opts.iterations = 0;
  EXPECT_THROW(anneal_mapping(ss, ppe_only(ss), opts), Error);
}

TEST(Annealing, RejectsInfeasibleStart) {
  TaskGraph g;
  Task t;
  t.wppe = t.wspe = 1e-3;
  g.add_task(t);
  g.add_task(t);
  g.add_edge(0, 1, 200.0 * 1024.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  EXPECT_THROW(anneal_mapping(ss, Mapping(2, 1), {}), Error);
}

}  // namespace
}  // namespace cellstream::mapping
