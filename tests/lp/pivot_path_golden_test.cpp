// Golden pivot path of the LP kernel on paper configurations.
//
// The simplex and the branch-and-bound above it are deterministic, so
// their pivot and node counts, the root objective's bit pattern and the
// chosen mapping are fixed functions of the floating-point operation order
// in the LU factorization, FTRAN/BTRAN and pricing.  These values are
// pinned exactly: a change that reorders any of that arithmetic fails
// here and has to re-baseline these numbers on purpose.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "gen/daggen.hpp"
#include "lp/simplex.hpp"
#include "mapping/milp_mapper.hpp"
#include "platform/cell.hpp"

namespace cellstream {
namespace {

SteadyStateAnalysis paper_point(int graph_index, std::size_t spes) {
  TaskGraph graph = gen::paper_graph(graph_index);
  gen::set_ccr(graph, 0.775);
  return SteadyStateAnalysis(std::move(graph), platforms::qs22_with_spes(spes));
}

std::string to_text(const std::vector<PeId>& pes) {
  std::string text;
  for (PeId pe : pes) text += std::to_string(pe) + ", ";
  return text;
}

struct GoldenSearch {
  std::size_t nodes;
  std::size_t pivots;
  std::size_t phase1_pivots;
  std::vector<PeId> mapping;
};

void expect_search(const SteadyStateAnalysis& analysis,
                   const GoldenSearch& golden) {
  mapping::MilpMapperOptions options;  // 5 % gap, one thread
  // Far above the solve's runtime even under sanitizers, so the limit
  // never cuts the search short.
  options.milp.time_limit_seconds = 3600.0;
  const mapping::MilpMapperResult r =
      mapping::solve_optimal_mapping(analysis, options);
  EXPECT_EQ(r.nodes, golden.nodes);
  EXPECT_EQ(r.lp_iterations, golden.pivots);
  EXPECT_EQ(r.stats.phase1_iterations, golden.phase1_pivots);
  EXPECT_EQ(r.mapping.raw(), golden.mapping)
      << "mapping " << to_text(r.mapping.raw());
}

// Paper graph 1 at CCR 0.775 on a QS22 with 4 SPEs, the first point of
// the paper's Fig. 7 sweep: its relaxation from the all-slack basis.
TEST(PivotPathGolden, RootRelaxation) {
  const lp::Problem problem =
      mapping::build_formulation(paper_point(0, 4)).problem;
  const lp::SimplexResult r = lp::solve_lp(problem);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(r.iterations, 135u);
  EXPECT_EQ(r.phase1_iterations, 51u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), 0x3fa0197e36b326c8ULL)
      << "objective " << r.objective;
}

// The same point mapped at a 5 % gap closes at the root.
TEST(PivotPathGolden, OptimalMappingAtRoot) {
  expect_search(paper_point(0, 4),
                {1, 135, 51,
                 {0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 4, 0, 3,
                  0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
                  2, 0, 1, 3, 0, 0, 0, 0, 4, 0, 0, 0, 2, 0, 3, 4}});
}

// Paper graph 3 (the chain) with 6 SPEs needs a branch-and-bound tree.
TEST(PivotPathGolden, OptimalMappingWithBranching) {
  expect_search(paper_point(2, 6),
                {109, 2751, 800,
                 {4, 4, 0, 0, 0, 0, 0, 5, 2, 0, 6, 0, 0, 0, 0, 0, 1,
                  0, 0, 3, 0, 1, 6, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0,
                  4, 3, 0, 0, 0, 0, 0, 4, 2, 0, 0, 3, 0, 0, 0, 2}});
}

}  // namespace
}  // namespace cellstream
