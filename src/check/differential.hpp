#pragma once
// Differential oracle over the mapping strategies (docs/TESTING.md).
//
// On graphs small enough for the exhaustive mapper, the four strategies of
// the paper's evaluation must agree with each other in precise ways:
//
//   D1  every mapper's output is feasible and its reported period matches
//       the steady-state analysis recomputation,
//   D2  mappers returning the identical mapping report identical periods,
//   D3  a mapper claiming optimality within gap g (exhaustive: g = 0;
//       MILP: the paper's 5 %) is never beaten by any other mapper by more
//       than that gap: period_opt <= period_other x (1 + g),
//   D4  a claimed lower bound (the MILP's best_bound) never exceeds the
//       exhaustive optimum,
//   D5  the parallel MILP solver is bit-identical to the sequential one:
//       re-running the branch-and-bound with milp_threads workers must
//       reproduce the exact mapping, period, best bound, node count, and
//       pivot count (the solver's determinism-by-construction guarantee),
//       checked whenever neither run was cut off by a time/node limit,
//   D6  the simulator's steady-state fast-forward is an optimization, not
//       an approximation: simulating the same (mapping, options) with
//       fast_forward on and off must produce *bit-identical* final stats —
//       every completion time, throughput, counter and per-edge total, and
//       on a traced run every field of every trace event —
//       and, when a cycle was detected, its observed period must not beat
//       the analytic steady-state bound (docs/PERFORMANCE.md).
//
// check_outcomes() applies the rules to an arbitrary outcome set, so tests
// can feed fabricated results and prove the oracle actually rejects them;
// cross_check_mappers() produces the real outcome set (exhaustive, MILP,
// GREEDYMEM, GREEDYCPU) and applies the rules.

#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/steady_state.hpp"
#include "sim/simulator.hpp"

namespace cellstream::check {

/// One mapper's claim about a (graph, platform) instance.
struct MapperOutcome {
  std::string name;          ///< "exhaustive", "milp", "greedy-mem", ...
  Mapping mapping;
  double period = 0.0;       ///< Reported steady-state period.
  bool optimal = false;      ///< Claims optimality within claimed_gap.
  double claimed_gap = 0.0;  ///< Relative gap of the optimality claim.
  bool has_lower_bound = false;
  double lower_bound = 0.0;  ///< Claimed lower bound on any period (D4).
  /// Whether the mapper promises full feasibility (all hard constraints).
  /// The greedy heuristics only guarantee the local-store constraint, so
  /// their outcomes set this false: an infeasible greedy mapping is then
  /// excluded from the dominance rule D3 instead of raising a false alarm.
  bool claims_feasible = true;
};

struct DifferentialOptions {
  /// Time budget of the MILP mapper, which runs at its default gap (the
  /// paper's 5 %).
  double milp_time_limit = 10.0;
  /// Relative numeric slack for period comparisons.
  double relative_tolerance = 1e-9;
  /// Refuse graphs larger than this (exhaustive search explodes).
  std::size_t max_tasks = 8;
  /// D5: re-run the MILP with `milp_threads` workers and require the
  /// result to be bit-identical to the sequential run; 1 skips D5.
  std::size_t milp_threads = 4;
};

struct DifferentialReport {
  std::vector<MapperOutcome> outcomes;
  std::vector<Violation> violations;
  bool ok() const { return violations.empty(); }
  std::string to_string() const;
};

/// Apply rules D1-D4 to `outcomes`; empty result = consistent.
std::vector<Violation> check_outcomes(
    const SteadyStateAnalysis& analysis,
    const std::vector<MapperOutcome>& outcomes,
    const DifferentialOptions& options = {});

/// Run exhaustive, MILP, GREEDYMEM and GREEDYCPU on the analysis' graph
/// and cross-check them.  Throws if the graph exceeds options.max_tasks.
DifferentialReport cross_check_mappers(const SteadyStateAnalysis& analysis,
                                       const DifferentialOptions& options = {});

/// D6: simulate `mapping` twice — once with fast_forward forced off, once
/// forced on — and require bit-identical results, the trace included when
/// `base_options.record_trace` is set.  `base_options` supplies everything
/// else (instances, overheads, ...); fault_plan must be unset, since it
/// disables the fast-forward and would make the rule vacuous.  Returns the
/// violations (empty = ok) and, via `engaged` if non-null, whether the
/// fast-forwarded run actually skipped ahead (short or aperiodic runs
/// legitimately never engage).
std::vector<Violation> check_fast_forward_equivalence(
    const SteadyStateAnalysis& analysis, const Mapping& mapping,
    const sim::SimOptions& base_options, bool* engaged = nullptr);

}  // namespace cellstream::check
