#pragma once
// Mixed-integer linear programming by parallel branch-and-bound.
//
// The paper solves its mapping program with CPLEX, stopping at a 5 %
// optimality gap; this module provides the same service on top of the
// bounded-variable simplex in src/lp.  It is a general binary-MILP solver
// (variables declared integer must have bounds within [0, 1] here), with
// the features the mapping problem benefits from:
//
//  * a round-based parallel tree search: every round a deterministic
//    selection rule picks up to `round_size` open nodes, their LPs are
//    solved concurrently by worker threads (each owning a thread-confined
//    IncrementalSimplex warm-started from the parent's saved Basis), and
//    the outcomes are committed sequentially in the selection order,
//  * determinism by construction: the schedule (selection, pruning
//    threshold, commit order) depends only on `round_size`, never on
//    `threads`, and every node LP is a pure function of (problem, fixing
//    chain, parent basis) because the basis is refactorized on load — so
//    the returned mapping, objective, bound, and node count are
//    bit-identical for every thread count, including threads == 1,
//  * best-first selection (strongest bound first) that switches to
//    depth-first once the open list outgrows 256 nodes, keeping
//    memory bounded while preserving warm-start locality,
//  * exactly-one groups (the assignment rows sum_i alpha_i^k = 1) used to
//    propagate fixings when branching,
//  * an application-provided rounding callback that turns fractional LP
//    points into feasible incumbents, giving early pruning,
//  * relative-gap termination identical to the paper's CPLEX usage.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace cellstream::milp {

struct Options {
  /// Accept any incumbent within this fraction of the optimum (the paper
  /// uses 0.05 with CPLEX).
  double relative_gap = 0.05;
  std::size_t max_nodes = 200000;
  double time_limit_seconds = 120.0;
  /// Worker threads solving node LPs concurrently; 0 means one per
  /// hardware thread.  The result is bit-identical for every value — only
  /// wall-clock time changes (see the determinism notes above and
  /// docs/FORMULATION.md).
  std::size_t threads = 1;
  /// Nodes selected (and solved concurrently) per round.  This is part of
  /// the deterministic schedule: changing it changes the search
  /// trajectory; changing `threads` does not.
  std::size_t round_size = 16;
  lp::SimplexOptions lp;
};

enum class Status : std::uint8_t {
  kOptimal,        ///< Proven optimal within the requested gap.
  kInfeasible,     ///< No integer-feasible point exists.
  kLimitFeasible,  ///< Node/time limit hit; best incumbent returned.
  kLimitNoSolution ///< Node/time limit hit with no incumbent found.
};

const char* to_string(Status status);

/// Observability counters for one solve() call, exported through the
/// mapping layer and `cellstream_cli solve`.
struct SearchStats {
  std::size_t rounds = 0;             ///< Bulk-synchronous rounds executed.
  std::size_t nodes = 0;              ///< Nodes whose LP was committed.
  std::size_t lp_iterations = 0;      ///< Simplex pivots across all nodes.
  std::size_t phase1_iterations = 0;  ///< Feasibility-restoring pivots.
  std::size_t warm_start_hits = 0;    ///< Node LPs seeded by a parent basis.
  std::size_t warm_start_misses = 0;  ///< All-slack starts (root or fallback).
  std::size_t pruned_by_bound = 0;    ///< Subtrees closed by the incumbent.
  std::size_t integral_leaves = 0;    ///< Nodes with an integral LP optimum.
  std::size_t infeasible_nodes = 0;
  std::size_t callback_candidates = 0;  ///< Rounding-callback proposals.
  std::size_t callback_accepted = 0;
  std::size_t callback_rejected = 0;  ///< Invalid / distrusted proposals.
  std::size_t max_open_size = 0;
  std::size_t threads_used = 1;  ///< Peak concurrent node solvers.

  /// One accepted incumbent improvement.  Stamped with the search
  /// position (round / committed nodes) rather than wall time so the
  /// trajectory is bit-identical for every thread count, like the rest
  /// of the round-based search.
  struct Incumbent {
    std::size_t round = 0;   ///< 0: initial incumbent, before round 1.
    std::size_t nodes = 0;   ///< Nodes committed when it was accepted.
    double objective = 0.0;  ///< The improved (minimization) objective.
  };
  /// Incumbent trajectory, strictly improving in objective.
  std::vector<Incumbent> incumbents;
};

struct Result {
  Status status = Status::kLimitNoSolution;
  double objective = 0.0;          ///< Incumbent objective (minimization).
  std::vector<double> x;           ///< Incumbent point (structural vars).
  double best_bound = 0.0;         ///< Proven lower bound.
  double gap = 0.0;                ///< (objective - best_bound)/objective.
  std::size_t nodes = 0;
  std::size_t lp_iterations = 0;
  double solve_seconds = 0.0;
  SearchStats stats;
};

/// Candidate integer solution produced by a rounding heuristic: true
/// objective value plus the full variable vector.  The solver re-verifies
/// finiteness, integrality, feasibility, and the claimed objective before
/// accepting it; any mismatch rejects the candidate outright.
struct Candidate {
  double objective;
  std::vector<double> x;
};

/// Callback invoked with each node's fractional LP point; may return a
/// feasible integer candidate derived from it (or nullopt).  With
/// Options::threads > 1 the callback runs concurrently from worker
/// threads, so it must be thread-safe; it must also be a pure function of
/// its argument or the deterministic-result guarantee is forfeit.
using RoundingCallback =
    std::function<std::optional<Candidate>(const std::vector<double>&)>;

class Solver {
 public:
  /// `problem` is copied; `integer_vars` lists the binary variables.
  Solver(lp::Problem problem, std::vector<lp::VarId> integer_vars,
         Options options = {});
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Declare that exactly one variable of `group` equals 1 in any feasible
  /// solution (the problem must already contain the corresponding row);
  /// enables fixing propagation when branching.
  void add_exactly_one_group(std::vector<lp::VarId> group);

  /// Branching priority per problem variable (higher = branch earlier);
  /// unset variables default to 0.
  void set_branch_priority(lp::VarId var, double priority);

  void set_rounding_callback(RoundingCallback callback) {
    rounding_ = std::move(callback);
  }

  /// Seed an incumbent known a priori (e.g. a greedy heuristic mapping).
  /// Verified against the problem before use.
  void add_initial_incumbent(const Candidate& candidate);

  Result solve();

 private:
  struct Fixing;       // persistent link of a node's fixing chain
  struct Node;         // open-list entry
  struct NodeOutcome;  // pure result of solving one node's LP
  struct Worker;       // thread-confined simplex + bound scratch

  /// Solve one node.  Pure function of (problem, node) given the frozen
  /// round threshold: the worker's bounds are fully reverted and the basis
  /// reloaded from the parent snapshot, so the result is independent of
  /// whatever the worker solved before.  Safe to call concurrently on
  /// distinct workers.
  NodeOutcome solve_node(Worker& worker, const Node& node,
                         double prune_bound, bool have_prune_bound) const;
  void commit_outcome(const Node& node, NodeOutcome& outcome);
  void push_children(const Node& node, const NodeOutcome& outcome);
  bool try_incumbent(const Candidate& candidate);
  double prune_threshold() const;
  bool out_of_budget() const;
  void note_closed_bound(double bound);

  lp::Problem problem_;
  std::vector<lp::VarId> integer_vars_;
  std::vector<bool> is_integer_;
  std::vector<double> priority_;
  std::vector<std::vector<lp::VarId>> groups_;
  std::vector<std::size_t> group_of_;  // per var; SIZE_MAX if none
  Options options_;
  RoundingCallback rounding_;

  // Solve-time state.  The incumbent intentionally persists across solve()
  // calls (an earlier solution primes the next solve's pruning).
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Node> open_;
  std::uint64_t next_seq_ = 0;
  bool has_incumbent_ = false;
  double incumbent_obj_ = 0.0;
  std::vector<double> incumbent_x_;
  double frontier_bound_ = 0.0;  // min bound among pruned/closed subtrees
  bool frontier_seen_ = false;
  double root_bound_ = 0.0;      // LP bound of the root node (global LB)
  bool have_root_bound_ = false;
  SearchStats stats_;
  double deadline_ = 0.0;
  bool stopped_ = false;
};

}  // namespace cellstream::milp
