// Rule D7, formulation equivalence: the compact routing formulation of
// `mapping::build_formulation` against the paper's n^2 transfer-variable
// program, kept test-local in reference_formulation.hpp.
//
// The compact polytope contains the projection of the reference one (the
// reference's send/receive sums are tight, so beta_{i,i} <= min(alpha_i^k,
// alpha_i^l) and beta_{s,p} >= alpha_s^k + alpha_p^l - 1), so its
// relaxation bound can only be lower; on the paper and DagGen instances
// the two bounds are equal.  At an integral alpha both equal the period.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "gen/daggen.hpp"
#include "lp/simplex.hpp"
#include "mapping/heuristics.hpp"
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
  if (equal) EXPECT_NEAR(compact, reference, 1e-9 * reference) << in.name;
}

// Every seed heuristic's mapping encodes to a feasible point whose
// objective is its period.
void expect_heuristics_encode(const Instance& in) {
  const Formulation f = build_formulation(in.analysis);
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

// Paper graphs 0-2 at CCR 0.775 with 4 SPEs (graph 1 keeps the (1k) pair
// rows there), under both buffer policies.
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

bool has_proxy_columns(const Formulation& f) {
  for (const auto& columns : f.to_ppe) {
    if (!columns.empty()) return true;
  }
  return false;
}

// Nine small sources fit one local store together, so a mapping can put
// nine SPE -> PPE transfers on one SPE: (1k) must be kept and must reject
// that mapping.
TEST(FormulationEquivalence, ProxySlotRowsKeptWhereTheyCanBind) {
  const SteadyStateAnalysis analysis = fan_in(9, 1024.0);
  const Formulation f = build_formulation(analysis);
  ASSERT_TRUE(has_proxy_columns(f));
  Mapping m(analysis.graph().task_count(), 1);  // every source on SPE 1
  m.assign(0, 0);                               // the sink on the PPE
  ASSERT_FALSE(analysis.feasible(m));
  ASSERT_EQ(analysis.usage(m).to_ppe_transfers[1], 9u);
  EXPECT_GE(f.problem.max_violation(encode_mapping(f, analysis, m)),
            1.0 - 1e-9);
}

// With at most eight sources, or with sources so large that at most 8.5
// of them fit one local store, no memory-feasible mapping exceeds the
// eight proxy slots and the pair rows are left out.
TEST(FormulationEquivalence, ProxySlotRowsPrunedWhereTheyCannotBind) {
  EXPECT_FALSE(has_proxy_columns(build_formulation(fan_in(8, 1024.0))));

  // Each source's footprint is its edge buffer, 2 instances deep.
  const double budget =
      static_cast<double>(platforms::qs22_single_cell().buffer_budget());
  const SteadyStateAnalysis big = fan_in(9, budget / (2.0 * 8.5));
  ASSERT_DOUBLE_EQ(big.task_buffer_bytes(1), budget / 8.5);
  const Formulation f = build_formulation(big);
  EXPECT_FALSE(has_proxy_columns(f));
  // The pruned rows were implied: nine sources on one SPE overflow its
  // local store, which (1i) rejects.
  Mapping m(big.graph().task_count(), 1);
  m.assign(0, 0);
  EXPECT_FALSE(big.feasible(m));
  EXPECT_GT(f.problem.max_violation(encode_mapping(f, big, m)), 1e-3);
}

}  // namespace
}  // namespace cellstream::mapping
