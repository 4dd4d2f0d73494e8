// Decision goldens of the mapping searches.
//
// Local search, annealing, the greedy-period construction, exhaustive
// search and the MILP mapper decide by comparing periods, so their
// results are fixed functions of the order of every sum and comparison in
// the steady-state account (SteadyStateAnalysis::account).  The final
// mappings, the bit patterns of their periods and the MILP search
// counters below were recorded before the account was split from the
// reports; a change that alters any of that arithmetic fails here and has
// to re-baseline these values on purpose.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "gen/daggen.hpp"
#include "mapping/annealing.hpp"
#include "mapping/exhaustive.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/local_search.hpp"
#include "mapping/milp_mapper.hpp"

namespace cellstream::mapping {
namespace {

struct Golden {
  std::uint64_t period_bits;
  std::vector<PeId> mapping;
};

SteadyStateAnalysis paper(int index, std::size_t spes, double ccr) {
  TaskGraph graph = gen::paper_graph(index);
  gen::set_ccr(graph, ccr);
  return SteadyStateAnalysis(std::move(graph), platforms::qs22_with_spes(spes));
}

SteadyStateAnalysis daggen(std::size_t tasks, std::uint64_t seed, double ccr,
                           CellPlatform platform, BufferPolicy policy) {
  gen::DagGenParams params;
  params.task_count = tasks;
  params.seed = seed;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, ccr);
  return SteadyStateAnalysis(std::move(graph), std::move(platform), policy);
}

/// The instances of the heuristic goldens, in the order of their tables.
std::vector<SteadyStateAnalysis> instances() {
  std::vector<SteadyStateAnalysis> out;
  out.push_back(paper(0, 8, 0.775));
  out.push_back(paper(1, 8, 0.775));
  out.push_back(paper(2, 4, 2.3));
  out.push_back(daggen(20, 3, 0.775, platforms::qs22_single_cell(),
                       BufferPolicy::kSharedColocated));
  out.push_back(daggen(24, 7, 1.5, platforms::qs22_dual_cell(),
                       BufferPolicy::kDuplicated));
  return out;
}

/// local_search_heuristic's start: greedy-cpu, or PPE-only when that
/// breaks a limit.
Mapping start(const SteadyStateAnalysis& analysis) {
  Mapping mapping = greedy_cpu(analysis);
  if (!analysis.feasible(mapping)) mapping = ppe_only(analysis);
  return mapping;
}

std::string to_text(const std::vector<PeId>& pes) {
  std::string text;
  for (PeId pe : pes) text += std::to_string(pe) + ", ";
  return text;
}

void expect_golden(const Mapping& mapping, double period,
                   const Golden& golden, std::size_t instance) {
  EXPECT_EQ(mapping.raw(), golden.mapping)
      << "instance " << instance << ": mapping " << to_text(mapping.raw());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(period), golden.period_bits)
      << "instance " << instance << ": period " << period;
}

TEST(SearchGolden, ImproveMappingDefaultOptions) {
  const std::vector<Golden> goldens = {
      // Paper graph 0, 8 SPEs, CCR 0.775.
      {0x3f97447f0cd7a0c8ULL,
       {8, 1, 1, 0, 0, 2, 6, 0, 0, 2, 1, 0, 0, 8, 4, 0, 3, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 3, 7, 0, 0, 6, 0, 0, 0, 0, 5, 0, 0, 5,
        8, 4, 2, 3}},
      // Paper graph 1, 8 SPEs, CCR 0.775.
      {0x3fb01b834cdf1d84ULL,
       {2, 1, 2, 7, 0, 0, 6, 0, 3, 0, 0, 1, 7, 0, 0, 0, 5, 0, 3, 0, 5, 0, 0,
        0, 8, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 0, 6, 0, 0, 0, 2, 0, 0, 0,
        0, 0, 4, 5, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 4, 0, 0, 4,
        0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 6, 0, 0, 0, 0, 0, 1, 6, 2, 0, 0, 0,
        4, 7}},
      // Paper graph 2, 4 SPEs, CCR 2.3.
      {0x3fa8f6397b22181dULL,
       {2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 3, 0, 0, 0,
        0, 0, 0, 0}},
      // DagGen K=20 seed 3, one Cell, shared buffers.
      {0x3f60f396da1d3fa0ULL,
       {1, 4, 2, 3, 3, 0, 2, 7, 8, 8, 4, 7, 6, 6, 3, 0, 2, 3, 5, 7}},
      // DagGen K=24 seed 7, CCR 1.5, dual Cell.
      {0x3f8011fad024a6a7ULL,
       {2, 3, 2, 1, 3, 1, 1, 1, 0, 4, 1, 0, 5, 1, 0, 6, 0, 1, 0, 1, 1, 7, 8,
        9}}};
  const std::vector<SteadyStateAnalysis> cases = instances();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Mapping mapping = start(cases[i]);
    const double period = improve_mapping(cases[i], mapping);
    expect_golden(mapping, period, goldens[i], i);
  }
}

// The rounding callback's polish: two move passes, no swaps.
TEST(SearchGolden, ImproveMappingTwoPassesNoSwaps) {
  const std::vector<Golden> goldens = {
      // Paper graph 0, 8 SPEs, CCR 0.775.
      {0x3f9da4183d196ccaULL,
       {0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 1, 0, 0, 8, 4, 0, 3, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 5, 0, 0, 7, 0, 0, 0, 0, 0, 0, 1, 6, 0, 0, 0, 0, 0, 0, 0, 0,
        8, 0, 2, 3}},
      // Paper graph 1, 8 SPEs, CCR 0.775.
      {0x3fb351d1e74cb6ffULL,
       {0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 3, 1, 4, 5, 0, 6, 2, 7, 8, 0, 5, 0, 0,
        0, 8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0,
        0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 7, 2, 0, 0, 0,
        0, 0}},
      // Paper graph 2, 4 SPEs, CCR 2.3.
      {0x3faa665fd24eb535ULL,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0}},
      // DagGen K=20 seed 3, one Cell, shared buffers.
      {0x3f6820dbf9a6c20dULL,
       {0, 3, 2, 3, 4, 5, 6, 7, 8, 8, 4, 7, 2, 6, 3, 1, 2, 3, 0, 7}},
      // DagGen K=24 seed 7, CCR 1.5, dual Cell.
      {0x3f803421b80f25d4ULL,
       {2, 3, 2, 0, 3, 1, 1, 1, 0, 4, 1, 1, 5, 0, 1, 6, 0, 1, 0, 1, 1, 7, 8,
        9}}};
  LocalSearchOptions options;
  options.max_passes = 2;
  options.use_swaps = false;
  const std::vector<SteadyStateAnalysis> cases = instances();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Mapping mapping = start(cases[i]);
    const double period = improve_mapping(cases[i], mapping, options);
    expect_golden(mapping, period, goldens[i], i);
  }
}

TEST(SearchGolden, AnnealMapping) {
  const std::vector<Golden> goldens = {
      // Paper graph 0, 8 SPEs, CCR 0.775.
      {0x3f9a08569e7212c3ULL,
       {5, 1, 4, 0, 0, 4, 6, 0, 0, 0, 8, 0, 0, 3, 1, 0, 2, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 8, 0, 0, 3, 0, 0, 0, 7, 0, 0, 2, 5, 0, 1, 3, 0, 2, 4, 0, 7,
        8, 0, 5, 5}},
      // Paper graph 1, 8 SPEs, CCR 0.775.
      {0x3fb2381abfeb3349ULL,
       {2, 2, 6, 0, 4, 5, 0, 7, 6, 0, 0, 0, 1, 5, 0, 0, 0, 7, 8, 0, 0, 0, 0,
        0, 8, 0, 0, 0, 3, 0, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 6, 0, 6, 0,
        0, 0, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5,
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 3, 7, 1, 6, 0, 0,
        3, 2}},
      // Paper graph 2, 4 SPEs, CCR 2.3.
      {0x3fa949abde9c6cb5ULL,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
        0, 0, 0, 0}},
      // DagGen K=20 seed 3, one Cell, shared buffers.
      {0x3f60f396da1d3fa0ULL,
       {7, 8, 1, 8, 6, 0, 1, 8, 6, 2, 3, 4, 6, 4, 1, 0, 2, 3, 5, 4}},
      // DagGen K=24 seed 7, CCR 1.5, dual Cell.
      {0x3f802ca3f20151b6ULL,
       {7, 5, 17, 1, 17, 1, 1, 1, 1, 10, 0, 0, 6, 0, 1, 12, 0, 0, 0, 1, 0,
        15, 11, 14}}};
  AnnealingOptions options;
  options.iterations = 5000;
  options.seed = 7;
  const std::vector<SteadyStateAnalysis> cases = instances();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Mapping mapping = anneal_mapping(cases[i], start(cases[i]), options);
    expect_golden(mapping, cases[i].period(mapping), goldens[i], i);
  }
}

TEST(SearchGolden, GreedyPeriod) {
  const std::vector<Golden> goldens = {
      // Paper graph 0, 8 SPEs, CCR 0.775.
      {0x3f9dd718193cf136ULL,
       {1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 7, 8, 0, 1, 0, 0, 5, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 8, 4, 0, 0, 0, 0, 0, 0, 0, 0,
        8, 0, 0, 1}},
      // Paper graph 1, 8 SPEs, CCR 0.775.
      {0x3fb3d03308a7640cULL,
       {1, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 3, 5, 6, 7, 7, 8, 0, 0, 7, 0, 0,
        0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0,
        0, 0}},
      // Paper graph 2, 4 SPEs, CCR 2.3.
      {0x3fa9eb3473aeae81ULL,
       {1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 4, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0,
        0, 0, 0, 0}},
      // DagGen K=20 seed 3, one Cell, shared buffers.
      {0x3f6cb1cc50141ad1ULL,
       {1, 1, 1, 1, 2, 2, 3, 4, 3, 5, 6, 4, 7, 3, 7, 8, 6, 0, 0, 0}},
      // DagGen K=24 seed 7, CCR 1.5, dual Cell.
      {0x3f8c1356183c6713ULL,
       {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0}}};
  const std::vector<SteadyStateAnalysis> cases = instances();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Mapping mapping = greedy_period(cases[i]);
    expect_golden(mapping, cases[i].period(mapping), goldens[i], i);
  }
}

TEST(SearchGolden, ExhaustiveOptimalMapping) {
  const std::vector<SteadyStateAnalysis> cases = {
      daggen(7, 2, 0.775, platforms::qs22_with_spes(3),
             BufferPolicy::kDuplicated),
      daggen(6, 4, 1.5, platforms::qs22_dual_cell(),
             BufferPolicy::kSharedColocated)};
  const std::vector<Golden> goldens = {
      {0x3f65414e727c4246ULL,
       {1, 2, 3, 0, 2, 1, 0}},
      {0x3f5937fc1ae59882ULL,
       {2, 0, 2, 1, 3, 4}}};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::optional<ExhaustiveResult> best =
        exhaustive_optimal_mapping(cases[i]);
    ASSERT_TRUE(best.has_value());
    expect_golden(best->mapping, best->period, goldens[i], i);
  }
}

struct GoldenSolve {
  std::size_t nodes;
  std::size_t lp_iterations;
  std::size_t phase1_iterations;
  std::size_t callback_candidates;
  std::size_t callback_accepted;
  /// (round, nodes, objective bits) of each incumbent improvement.
  std::vector<std::array<std::uint64_t, 3>> incumbents;
  Golden result;
};

void expect_solve(const SteadyStateAnalysis& analysis,
                  const MilpMapperOptions& options, const GoldenSolve& golden) {
  const MilpMapperResult r = solve_optimal_mapping(analysis, options);
  EXPECT_EQ(r.nodes, golden.nodes);
  EXPECT_EQ(r.lp_iterations, golden.lp_iterations);
  EXPECT_EQ(r.stats.phase1_iterations, golden.phase1_iterations);
  EXPECT_EQ(r.stats.callback_candidates, golden.callback_candidates);
  EXPECT_EQ(r.stats.callback_accepted, golden.callback_accepted);
  std::vector<std::array<std::uint64_t, 3>> incumbents;
  for (const milp::SearchStats::Incumbent& p : r.stats.incumbents) {
    incumbents.push_back({p.round, p.nodes,
                          std::bit_cast<std::uint64_t>(p.objective)});
  }
  EXPECT_EQ(incumbents, golden.incumbents);
  expect_golden(r.mapping, r.period, golden.result, 0);
}

// Paper graph 1 at CCR 0.775 on 8 SPEs, the paper-map point, at the
// mapper defaults: it closes at the root on the polished seeds.
TEST(SearchGolden, SolveOptimalMappingPaperGraph1) {
  MilpMapperOptions options;  // 5 % gap, one thread
  options.milp.time_limit_seconds = 3600.0;
  expect_solve(paper(1, 8, 0.775), options,
               {1, 257, 95, 0, 0,
                {{0, 0, 0x3fafef3c89012b30ULL}},
                {0x3fafef3c89012b30ULL,
                 {1, 6, 3, 0, 0, 7, 7, 6, 3, 0, 0, 3, 5, 0, 0, 0, 8, 0, 0, 0,
                  2, 0, 0, 0, 4, 0, 0, 0, 6, 0, 5, 0, 0, 0, 0, 0, 2, 0, 6, 0,
                  0, 0, 2, 0, 8, 0, 0, 0, 7, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                  5, 0, 0, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 7, 0, 1, 0, 0,
                  8, 0, 0, 0, 0, 0, 2, 0, 4, 0, 0, 0, 4, 1}}});
}

// A gap-0 DagGen search whose LP roundings reach the callback; an
// integral leaf improves the incumbent.
TEST(SearchGolden, SolveOptimalMappingWithRoundings) {
  MilpMapperOptions options;
  options.milp.relative_gap = 0.0;
  options.milp.time_limit_seconds = 3600.0;
  expect_solve(daggen(15, 2, 0.775, platforms::qs22_single_cell(),
                      BufferPolicy::kDuplicated),
               options,
               {31, 514, 174, 22, 0,
                {{0, 0, 0x3f6c08e63b1e7105ULL},
                 {12, 30, 0x3f68500f3f51437eULL}},
                {0x3f68500f3f51437fULL,
                 {5, 8, 8, 0, 3, 4, 8, 0, 1, 7, 6, 4, 7, 5, 1}}});
}

}  // namespace
}  // namespace cellstream::mapping
