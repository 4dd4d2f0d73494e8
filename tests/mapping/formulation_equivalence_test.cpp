// Rule D7, formulation equivalence: the compact routing formulation of
// `mapping::build_formulation` against the paper's n^2 transfer-variable
// program, kept test-local in reference_formulation.hpp.
//
// The compact polytope contains the projection of the reference one (the
// reference's send/receive sums are tight, so beta_{i,i} <= min(alpha_i^k,
// alpha_i^l)), and it leaves (1k) to the mapper's proxy-slot cuts, so its
// relaxation bound can only be lower; on the paper and DagGen instances
// the two bounds are equal.  At an integral alpha both equal the period.
// Where an answer breaks (1k), the mapper's cut loop must still reach the
// reference program's optimum.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "gen/daggen.hpp"
#include "lp/simplex.hpp"
#include "mapping/heuristics.hpp"
#include "milp/branch_and_bound.hpp"
#include "mapping/milp_mapper.hpp"
#include "reference_formulation.hpp"

namespace cellstream::mapping {
namespace {

struct Instance {
  std::string name;
  SteadyStateAnalysis analysis;
};

double root_objective(const lp::Problem& problem) {
  const lp::SimplexResult r = lp::solve_lp(problem);
  EXPECT_EQ(r.status, lp::SolveStatus::kOptimal);
  return r.objective;
}

// Relaxation bounds: compact <= reference always, and equal (1e-9
// relative) where `equal` is set.
void expect_root_bounds(const Instance& in, bool equal) {
  const double compact = root_objective(build_formulation(in.analysis).problem);
  const double reference = root_objective(
      reference::build_beta_formulation(in.analysis).problem);
  EXPECT_LE(compact, reference * (1.0 + 1e-9)) << in.name;
  if (equal) {
    EXPECT_NEAR(compact, reference, 1e-9 * reference) << in.name;
  }
}

// Every seed heuristic's mapping encodes to a feasible point whose
// objective is its period, also once proxy-slot cuts are appended (here
// for the edges from even tasks on the first SPE to odd tasks on a PPE).
void expect_heuristics_encode(const Instance& in) {
  Formulation f = build_formulation(in.analysis);
  const CellPlatform& platform = in.analysis.platform();
  Mapping split(in.analysis.graph().task_count(), 0);
  for (TaskId k = 0; k < split.task_count(); k += 2) {
    split.assign(k, platform.ppe_count);
  }
  ASSERT_EQ(add_proxy_cuts(f, in.analysis, split, platform.ppe_count),
            platform.spe_count);
  for (const char* name :
       {"ppe-only", "greedy-mem", "greedy-cpu", "greedy-period"}) {
    const Mapping m = run_heuristic(name, in.analysis);
    if (!in.analysis.feasible(m)) continue;
    const std::vector<double> x = encode_mapping(f, in.analysis, m);
    EXPECT_LE(f.problem.max_violation(x), 1e-9) << in.name << ", " << name;
    EXPECT_EQ(f.problem.objective_value(x), in.analysis.period(m))
        << in.name << ", " << name;
    EXPECT_EQ(extract_mapping(f, x), m) << in.name << ", " << name;
  }
}

SteadyStateAnalysis paper(int index, double ccr, CellPlatform platform,
                          BufferPolicy policy) {
  TaskGraph graph = gen::paper_graph(index);
  gen::set_ccr(graph, ccr);
  return SteadyStateAnalysis(std::move(graph), std::move(platform), policy);
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

const char* policy_name(BufferPolicy policy) {
  return policy == BufferPolicy::kDuplicated ? "duplicated" : "shared";
}

// Paper graphs 0-2 at CCR 0.775 with 4 SPEs, under both buffer policies.
std::vector<Instance> paper_instances() {
  std::vector<Instance> out;
  for (BufferPolicy policy :
       {BufferPolicy::kDuplicated, BufferPolicy::kSharedColocated}) {
    for (int g = 0; g < 3; ++g) {
      out.push_back({"paper graph " + std::to_string(g) + ", " +
                         policy_name(policy),
                     paper(g, 0.775, platforms::qs22_with_spes(4), policy)});
    }
  }
  return out;
}

// DagGen K=15/20 on one QS22 Cell under both policies and on the dual
// Cell (whose chip-link rows read the same_chip aggregates).
std::vector<Instance> daggen_instances() {
  std::vector<Instance> out;
  for (std::size_t k : {15, 20}) {
    for (std::uint64_t seed : {1, 2}) {
      const std::string name =
          "K=" + std::to_string(k) + " seed " + std::to_string(seed);
      for (BufferPolicy policy :
           {BufferPolicy::kDuplicated, BufferPolicy::kSharedColocated}) {
        out.push_back({name + ", " + policy_name(policy),
                       daggen(k, seed, 0.775, platforms::qs22_single_cell(),
                              policy)});
      }
      out.push_back({name + ", dual cell",
                     daggen(k, seed, 0.775, platforms::qs22_dual_cell(),
                            BufferPolicy::kDuplicated)});
    }
  }
  return out;
}

TEST(FormulationEquivalence, PaperGraphsRootBoundsEqual) {
  for (const Instance& in : paper_instances()) expect_root_bounds(in, true);
}

TEST(FormulationEquivalence, DagGenRootBoundsEqual) {
  for (const Instance& in : daggen_instances()) expect_root_bounds(in, true);
}

TEST(FormulationEquivalence, DualCellPaperGraphRootBoundEqual) {
  expect_root_bounds({"paper graph 2, dual cell",
                      paper(2, 0.775, platforms::qs22_dual_cell(),
                            BufferPolicy::kDuplicated)},
                     true);
}

// The projection argument alone: small random graphs at CCRs and SPE
// counts the equality cases do not visit.
TEST(FormulationEquivalence, CompactBoundNeverAboveReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (BufferPolicy policy :
         {BufferPolicy::kDuplicated, BufferPolicy::kSharedColocated}) {
      const double ccr = 0.5 * static_cast<double>(seed);
      expect_root_bounds(
          {"K=10 seed " + std::to_string(seed) + ", " + policy_name(policy),
           daggen(10, seed, ccr, platforms::qs22_with_spes(1 + seed % 4),
                  policy)},
          false);
    }
  }
}

TEST(FormulationEquivalence, HeuristicMappingsEncodeExactly) {
  for (const Instance& in : paper_instances()) expect_heuristics_encode(in);
  for (const Instance& in : daggen_instances()) expect_heuristics_encode(in);
}

// `sources` tasks feeding one sink, each edge carrying `data` bytes.
SteadyStateAnalysis fan_in(std::size_t sources, double data) {
  TaskGraph graph("fan-in");
  Task task;
  task.wppe = 1e-4;
  task.wspe = 1e-4;
  const TaskId sink = graph.add_task(task);
  for (std::size_t s = 0; s < sources; ++s) {
    graph.add_edge(graph.add_task(task), sink, data);
  }
  return SteadyStateAnalysis(std::move(graph), platforms::qs22_single_cell());
}

// One source cheap on a SPE feeding nine sinks cheap on the PPE, over
// 64-byte edges.  Without (1k) the best mapping puts the source on a SPE
// and all nine sinks on the PPE: nine transfers for eight proxy slots.
SteadyStateAnalysis fan_out() {
  TaskGraph graph("fan-out");
  Task source;
  source.wspe = 1e-5;
  source.wppe = 1e-2;
  Task sink;
  sink.wspe = 1e-2;
  sink.wppe = 1e-5;
  const TaskId root = graph.add_task(source);
  for (int s = 0; s < 9; ++s) graph.add_edge(root, graph.add_task(sink), 64.0);
  return SteadyStateAnalysis(std::move(graph), platforms::qs22_single_cell());
}

// Solve a mapping program, compact or reference, to optimality with the
// bare branch-and-bound over its alpha binaries: no seeds, no cuts.
template <typename F>
milp::Result solve_exactly(const F& f) {
  std::vector<lp::VarId> integer_vars;
  for (const auto& row : f.alpha) {
    integer_vars.insert(integer_vars.end(), row.begin(), row.end());
  }
  milp::Options options;
  options.relative_gap = 0.0;
  milp::Solver solver(f.problem, integer_vars, options);
  for (const auto& row : f.alpha) solver.add_exactly_one_group(row);
  const milp::Result r = solver.solve();
  EXPECT_EQ(r.status, milp::Status::kOptimal);
  return r;
}

MilpMapperOptions exact_options(std::size_t threads) {
  MilpMapperOptions options;
  options.milp.relative_gap = 0.0;
  options.with_threads(threads);
  return options;
}

// The compact program alone answers with nine SPE -> PPE transfers on one
// SPE; one cut round rejects that answer and the mapper reaches the
// optimum of the reference program, which carries (1k) as rows.
TEST(FormulationEquivalence, ProxySlotCutReachesReferenceOptimum) {
  const SteadyStateAnalysis analysis = fan_out();
  Formulation f = build_formulation(analysis);
  const Mapping uncut = extract_mapping(f, solve_exactly(f).x);
  ASSERT_FALSE(analysis.feasible(uncut));
  ASSERT_EQ(analysis.usage(uncut).to_ppe_transfers[uncut.pe_of(0)], 9u);
  // The cut rejects that answer.
  add_proxy_cuts(f, analysis, uncut, uncut.pe_of(0));
  EXPECT_GE(f.problem.max_violation(encode_mapping(f, analysis, uncut)),
            1.0 - 1e-9);

  const double reference =
      solve_exactly(reference::build_beta_formulation(analysis)).objective;
  const MilpMapperResult one = solve_optimal_mapping(analysis, exact_options(1));
  EXPECT_GE(one.proxy_cuts, 1u);
  EXPECT_EQ(one.status, milp::Status::kOptimal);
  EXPECT_TRUE(analysis.feasible(one.mapping));
  EXPECT_NEAR(one.period, reference, 1e-9 * reference);

  // D5: the cut rounds are as deterministic as one solve.
  const MilpMapperResult four =
      solve_optimal_mapping(analysis, exact_options(4));
  EXPECT_EQ(four.mapping, one.mapping);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(four.period),
            std::bit_cast<std::uint64_t>(one.period));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(four.best_bound),
            std::bit_cast<std::uint64_t>(one.best_bound));
  EXPECT_EQ(four.nodes, one.nodes);
  EXPECT_EQ(four.lp_iterations, one.lp_iterations);
  EXPECT_EQ(four.proxy_cuts, one.proxy_cuts);
}

// Nine small sources feeding one sink fit one local store together; the
// mapper's answer keeps the eight proxy slots.  The symmetric instance
// does not close its gap within the default 200000 nodes, so a smaller
// budget keeps the case fast.
TEST(FormulationEquivalence, FanInAnswerKeepsProxySlots) {
  const SteadyStateAnalysis analysis = fan_in(9, 1024.0);
  MilpMapperOptions options;
  options.milp.max_nodes = 1024;
  EXPECT_TRUE(
      analysis.feasible(solve_optimal_mapping(analysis, options).mapping));
}

// A node budget that runs out before the cut round: the first solve
// accepts the (1k)-breaking answer at node 74 and would prove it at node
// 89, so 80 nodes stop it with that answer in hand.  The mapper returns a
// feasible mapping in its place, as a limit result.
TEST(FormulationEquivalence, ProxySlotBreakRepairedWhenBudgetRunsOut) {
  const SteadyStateAnalysis analysis = fan_out();
  MilpMapperOptions options = exact_options(1);
  options.milp.max_nodes = 80;
  const MilpMapperResult r = solve_optimal_mapping(analysis, options);
  EXPECT_EQ(r.status, milp::Status::kLimitFeasible);
  EXPECT_EQ(r.proxy_cuts, 0u);
  EXPECT_EQ(r.nodes, 80u);
  EXPECT_TRUE(analysis.feasible(r.mapping));
  // The solver's last incumbent broke (1k); the returned mapping is not
  // it, and is no worse than the best seed (the initial incumbent).
  ASSERT_FALSE(r.stats.incumbents.empty());
  EXPECT_LT(r.stats.incumbents.back().objective, r.period);
  EXPECT_LE(r.period, r.stats.incumbents.front().objective);
  EXPECT_LE(r.best_bound, r.period);
  EXPECT_EQ(r.gap, (r.period - r.best_bound) / r.period);
}

}  // namespace
}  // namespace cellstream::mapping
