#pragma once
// The paper's optimal mapping via mixed linear programming (Section 5).
//
// Variables (e = (k,l) an edge, i a PE, c a chip):
//   alpha[k][i] in {0,1} : task T_k runs on PE_i,
//   colocated[e][i] in [0,1] : d_{e,i}, both endpoints of e run on PE_i
//       (d_{e,i} <= alpha_i^k and <= alpha_i^l); alpha_i^l - d_{e,i} is
//       e's traffic into PE_i and alpha_i^k - d_{e,i} its traffic out,
//   same_chip[e][c] in [0,1] : both endpoints on chip c (multi-chip only),
//   T >= 0 : period length (seconds); the objective minimizes T.
//
// The routing columns are continuous.  Rows read colocated and same_chip
// only with the sign that makes a larger value looser, so once every
// alpha is integral the LP optimum is the mapping's period and branching
// on alpha alone is exact.  The paper's n^2 transfer variables
// beta_{i,j}^{k,l} are not needed: docs/FORMULATION.md gives the
// projection argument, and tests/mapping/formulation_equivalence_test.cpp
// checks it.
//
// build_formulation emits the paper's (1b)-(1j), with bandwidth rows
// divided by bw and the local-store row divided by the buffer budget so
// every coefficient is well-scaled (seconds / dimensionless).  (1k), at
// most 8 transfers from a SPE to PPEs, is enforced lazily by
// solve_optimal_mapping: when the MILP answer breaks it on a SPE, one
// proxy-slot cut per SPE is appended and the MILP solved again.  No
// paper or DagGen benchmark instance needs a cut.

#include <vector>

#include "core/steady_state.hpp"
#include "lp/problem.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/recorder.hpp"

namespace cellstream::mapping {

/// The assembled MILP and the variable ids needed to interpret solutions.
struct Formulation {
  lp::Problem problem;
  /// alpha[k][i]: assignment binaries.
  std::vector<std::vector<lp::VarId>> alpha;
  /// colocated[e][i]: d_{e,i}, both endpoints of edge e on PE i.
  std::vector<std::vector<lp::VarId>> colocated;
  /// same_chip[e][c]: both endpoints of edge e on chip c (empty on one
  /// chip).
  std::vector<std::vector<lp::VarId>> same_chip;
  lp::VarId period_var = 0;
};

/// Build the paper's linear program (1) for `analysis`'s graph/platform.
Formulation build_formulation(const SteadyStateAnalysis& analysis);

/// Extract the mapping encoded by the alpha block of a MILP solution.
Mapping extract_mapping(const Formulation& formulation,
                        const std::vector<double>& x);

/// Construct the full variable vector (alpha, routing columns = products,
/// T = period) corresponding to a concrete mapping; used to inject
/// heuristic solutions as incumbents and in tests.
std::vector<double> encode_mapping(const Formulation& formulation,
                                   const SteadyStateAnalysis& analysis,
                                   const Mapping& mapping);

/// Append the proxy-slot cut of `mapping`'s edges S from SPE `spe` to
/// PPEs, one row per SPE s' (SPEs are interchangeable):
///   sum_{e=(k,l) in S} (alpha_{s'}^k + sum_p alpha_p^l) <= slots + |S|.
/// Each term is at most 2, and 2 exactly when e runs from s' to a PPE, so
/// every mapping that keeps (1k) keeps every cut; a mapping with more than
/// `ppe_to_spe_dma_slots` edges in S breaks the cut on `spe`.  Returns the
/// number of rows appended.
std::size_t add_proxy_cuts(Formulation& formulation,
                           const SteadyStateAnalysis& analysis,
                           const Mapping& mapping, PeId spe);

struct MilpMapperOptions {
  milp::Options milp;  ///< relative_gap defaults to the paper's 5 %.
  /// Seed the search with GreedyMem / GreedyCpu / PPE-only incumbents.
  bool seed_with_heuristics = true;
  /// Additional caller-supplied warm starts, injected as incumbents when
  /// they are feasible (each is local-search-polished first).  Degraded-
  /// mode remapping passes the surviving assignment here so the B&B
  /// starts from the running configuration instead of from scratch.
  std::vector<Mapping> extra_incumbents;

  MilpMapperOptions() { milp.time_limit_seconds = 60.0; }

  /// Solve node LPs on `n` worker threads (0 = one per hardware thread).
  /// The resulting mapping, period, bound, and node count are bit-identical
  /// for every thread count — only the wall clock changes.
  MilpMapperOptions& with_threads(std::size_t n) {
    milp.threads = n;
    return *this;
  }
};

struct MilpMapperResult {
  Mapping mapping;
  double period = 0.0;      ///< Steady-state period of `mapping` (analysis).
  double throughput = 0.0;  ///< 1 / period.
  milp::Status status = milp::Status::kLimitNoSolution;
  double gap = 0.0;         ///< Proven optimality gap.
  double best_bound = 0.0;  ///< Lower bound on any mapping's period.
  /// Nodes, pivots and solver seconds, summed over every cut round.
  std::size_t nodes = 0;
  std::size_t lp_iterations = 0;
  double solve_seconds = 0.0;
  /// Proxy-slot cut rows appended because an answer broke (1k); 0 when
  /// the first solve's answer kept it.
  std::size_t proxy_cuts = 0;
  /// Mappings the local search considered while polishing the heuristic
  /// seeds, the warm starts and the LP roundings, and those of them it
  /// fully accounted (the rest its screen rejected); both the same for
  /// every thread count.
  std::size_t mapping_candidates = 0;
  std::size_t mapping_evaluations = 0;
  /// Wall seconds of that local search, summed over the B&B threads.
  double polish_seconds = 0.0;
  /// Solver observability: rounds, warm-start hit rate, prune counts,
  /// callback accept/reject counts, peak open list, threads used.  Of the
  /// final cut round, except nodes and (phase-1) pivots: summed.
  milp::SearchStats stats;
};

/// Compute a throughput-optimal (within the configured gap) mapping of the
/// analysis' graph onto its platform.  milp.max_nodes and
/// milp.time_limit_seconds bound all cut rounds together; an answer that
/// still breaks (1k) when they run out is repaired and returned as
/// kLimitFeasible.  Throws if no feasible mapping exists within the limits
/// (with >= 1 PPE there is always the PPE-only mapping, so this only
/// happens on pathological limit settings).
MilpMapperResult solve_optimal_mapping(const SteadyStateAnalysis& analysis,
                                       const MilpMapperOptions& options = {});

/// Repackage a mapper result's search statistics for the telemetry layer
/// (obs::Report / `cellstream_cli stats`).  milp itself stays independent
/// of obs; this adapter is the only coupling point.
obs::SolverStats solver_stats(const MilpMapperResult& result);

}  // namespace cellstream::mapping
