#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <iterator>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

namespace cellstream::milp {

namespace {

constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Smallest prune slack, for incumbents whose objective is near zero.
constexpr double kAbsoluteGap = 1e-9;
/// Distance to the nearest integer below which a value counts as integral.
constexpr double kIntegralityTol = 1e-6;
/// Open-list size beyond which selection switches from best-first to
/// depth-first, bounding memory on hard instances.
constexpr std::size_t kDfsOpenThreshold = 256;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(Status status) {
  switch (status) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kLimitFeasible: return "limit-feasible";
    case Status::kLimitNoSolution: return "limit-no-solution";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Search-tree data structures.
//
// A node is identified by its chain of variable fixings (a persistent
// linked list shared between siblings, root fixes applied last) plus the
// basis snapshot of its parent's LP optimum.  Nothing else is needed to
// solve it, which is what makes a node solve a pure function: any worker,
// on any thread, in any round, produces bit-identical results for the
// same node.

struct Solver::Fixing {
  std::shared_ptr<const Fixing> parent;
  /// The branch fix first, then any group-propagated zero fixes.  A
  /// variable may reappear deeper in the chain, but only ever with the
  /// same value (a 0-fixed variable is never fractional, so it is never
  /// branched on again), so application order does not matter.
  std::vector<std::pair<lp::VarId, double>> fixes;
};

struct Solver::Node {
  std::shared_ptr<const Fixing> fixings;  // null for the root
  std::shared_ptr<const lp::Basis> warm;  // parent basis; null = all-slack
  double bound = -kInf;  // parent LP objective: lower bound for the subtree
  std::uint32_t depth = 0;
  std::uint64_t seq = 0;  // unique creation index: deterministic tiebreak
};

struct Solver::NodeOutcome {
  enum class Kind : std::uint8_t {
    kInfeasible,  ///< LP infeasible: subtree closed.
    kPruned,      ///< LP bound met the frozen round threshold.
    kLeaf,        ///< Integral LP optimum.
    kBranch,      ///< Fractional (or unresolved) node: two children.
    kAbandoned,   ///< LP unresolved with every integer variable fixed.
  };
  Kind kind = Kind::kAbandoned;
  bool bound_valid = false;
  double bound = -kInf;  ///< Node LP objective when bound_valid.
  std::size_t lp_iterations = 0;
  std::size_t phase1_iterations = 0;
  bool warm_hit = false;
  Candidate leaf{0.0, {}};            ///< kLeaf only.
  std::optional<Candidate> rounded;   ///< Rounding-callback proposal.
  lp::VarId branch_var = 0;           ///< kBranch only.
  double branch_first = 1.0;          ///< Value of the first child.
  std::shared_ptr<const lp::Basis> child_warm;
  std::exception_ptr error;  ///< Set instead of the above if the solve threw.
};

/// One thread's solver context.  Workers are reused across rounds and
/// across solve() calls; solve_node fully reverts the bound changes of the
/// previous node, so no state leaks between nodes.
struct Solver::Worker {
  lp::IncrementalSimplex simplex;
  std::vector<double> cur_lo, cur_up;  // current structural bounds
  std::vector<lp::VarId> touched;      // vars diverging from problem bounds

  Worker(const lp::Problem& problem, const lp::SimplexOptions& lp_options)
      : simplex(problem, lp_options) {
    cur_lo.resize(problem.variable_count());
    cur_up.resize(problem.variable_count());
    for (lp::VarId v = 0; v < problem.variable_count(); ++v) {
      cur_lo[v] = problem.var_lo(v);
      cur_up[v] = problem.var_up(v);
    }
  }
};

Solver::Solver(lp::Problem problem, std::vector<lp::VarId> integer_vars,
               Options options)
    : problem_(std::move(problem)),
      integer_vars_(std::move(integer_vars)),
      options_(options) {
  is_integer_.assign(problem_.variable_count(), false);
  priority_.assign(problem_.variable_count(), 0.0);
  group_of_.assign(problem_.variable_count(), kNoGroup);
  for (lp::VarId v : integer_vars_) {
    CS_ENSURE(v < problem_.variable_count(), "Solver: bad integer variable");
    CS_ENSURE(problem_.var_lo(v) >= -1e-9 && problem_.var_up(v) <= 1.0 + 1e-9,
              "Solver: integer variables must be binary");
    is_integer_[v] = true;
  }
}

Solver::~Solver() = default;

void Solver::add_exactly_one_group(std::vector<lp::VarId> group) {
  // Validate the whole group before mutating any state, so a rejected
  // call leaves the solver unchanged.
  for (lp::VarId v : group) {
    CS_ENSURE(v < problem_.variable_count(), "group: bad variable");
    CS_ENSURE(is_integer_[v], "group: variable is not integer");
    CS_ENSURE(group_of_[v] == kNoGroup, "group: variable in two groups");
  }
  for (lp::VarId v : group) group_of_[v] = groups_.size();
  groups_.push_back(std::move(group));
}

void Solver::set_branch_priority(lp::VarId var, double priority) {
  CS_ENSURE(var < problem_.variable_count(), "priority: bad variable");
  priority_[var] = priority;
}

void Solver::add_initial_incumbent(const Candidate& candidate) {
  (void)try_incumbent(candidate);
}

double Solver::prune_threshold() const {
  CS_ASSERT(has_incumbent_, "prune_threshold without incumbent");
  const double slack =
      std::max(kAbsoluteGap, options_.relative_gap * std::abs(incumbent_obj_));
  return incumbent_obj_ - slack;
}

bool Solver::out_of_budget() const {
  return stats_.nodes >= options_.max_nodes || now_seconds() >= deadline_;
}

void Solver::note_closed_bound(double bound) {
  frontier_bound_ = frontier_seen_ ? std::min(frontier_bound_, bound) : bound;
  frontier_seen_ = true;
}

bool Solver::try_incumbent(const Candidate& candidate) {
  if (candidate.x.size() != problem_.variable_count()) return false;
  // Distrust the candidate wholesale.  Non-finite entries must be caught
  // explicitly: a NaN coordinate makes every downstream comparison
  // (fractionality > tol, violation > tol) silently false, which used to
  // let a fabricated candidate through.
  if (!std::isfinite(candidate.objective)) return false;
  for (double value : candidate.x) {
    if (!std::isfinite(value)) return false;
  }
  if (has_incumbent_ && candidate.objective >= incumbent_obj_) return false;
  for (lp::VarId v : integer_vars_) {
    const double frac = std::abs(candidate.x[v] - std::round(candidate.x[v]));
    if (frac > kIntegralityTol) return false;
  }
  if (problem_.max_violation(candidate.x) > 1e-6) return false;
  const double true_obj = problem_.objective_value(candidate.x);
  if (!std::isfinite(true_obj)) return false;
  if (std::abs(true_obj - candidate.objective) >
      1e-6 * (1.0 + std::abs(true_obj))) {
    // The claimed objective is inconsistent with the recomputed one.  Do
    // NOT silently substitute the recomputation: a callback that lies
    // about the objective cannot be trusted about anything else, and
    // accepting it here would prune the node that produced it.  Reject the
    // candidate and let the search re-expand normally.
    return false;
  }
  if (has_incumbent_ && true_obj >= incumbent_obj_) return false;
  has_incumbent_ = true;
  incumbent_obj_ = true_obj;
  incumbent_x_ = candidate.x;
  // Trajectory point for the telemetry layer.  try_incumbent only runs on
  // the sequential commit thread (or before solve(), for the initial
  // incumbent), so the stamp is deterministic for every thread count.
  stats_.incumbents.push_back({stats_.rounds, stats_.nodes, true_obj});
  return true;
}

Solver::NodeOutcome Solver::solve_node(Worker& worker, const Node& node,
                                       double prune_bound,
                                       bool have_prune_bound) const {
  NodeOutcome out;

  // Revert the previous node's bounds, then apply this node's chain.
  for (lp::VarId v : worker.touched) {
    worker.cur_lo[v] = problem_.var_lo(v);
    worker.cur_up[v] = problem_.var_up(v);
    worker.simplex.set_variable_bounds(v, worker.cur_lo[v], worker.cur_up[v]);
  }
  worker.touched.clear();
  for (const Fixing* f = node.fixings.get(); f != nullptr;
       f = f->parent.get()) {
    for (const auto& [var, value] : f->fixes) {
      worker.cur_lo[var] = value;
      worker.cur_up[var] = value;
      worker.simplex.set_variable_bounds(var, value, value);
      worker.touched.push_back(var);
    }
  }

  // Load the parent basis (refactorized from scratch inside load_basis) or
  // fall back to all-slack.  Either way the solve trajectory depends only
  // on (problem, chain, parent basis) — never on the worker's history.
  out.warm_hit = node.warm != nullptr && worker.simplex.load_basis(*node.warm);
  if (!out.warm_hit) worker.simplex.reset_basis();

  const lp::SimplexResult res = worker.simplex.solve();
  out.lp_iterations = res.iterations;
  out.phase1_iterations = res.phase1_iterations;

  if (res.status == lp::SolveStatus::kInfeasible) {
    out.kind = NodeOutcome::Kind::kInfeasible;
    return out;
  }
  out.bound_valid = res.status == lp::SolveStatus::kOptimal;
  out.bound = out.bound_valid ? res.objective : -kInf;

  // Prune against the round's frozen threshold.  The commit-time threshold
  // can only be tighter (the incumbent only improves), so a worker-side
  // prune is always still valid when committed.
  if (have_prune_bound && out.bound_valid && out.bound >= prune_bound) {
    out.kind = NodeOutcome::Kind::kPruned;
    return out;
  }

  // Locate the branching variable: fractional integer var with the highest
  // (priority, fractionality) pair.
  lp::VarId branch_var = 0;
  bool found_fractional = false;
  double best_priority = -kInf;
  double best_frac = -1.0;
  if (out.bound_valid) {
    for (lp::VarId v : integer_vars_) {
      const double val = res.x[v];
      const double frac = std::min(val - std::floor(val), std::ceil(val) - val);
      if (frac <= kIntegralityTol) continue;
      const bool better = !found_fractional || priority_[v] > best_priority ||
                          (priority_[v] == best_priority && frac > best_frac);
      if (better) {
        branch_var = v;
        best_priority = priority_[v];
        best_frac = frac;
      }
      found_fractional = true;
    }
  }

  if (out.bound_valid && !found_fractional) {
    // Integral LP optimum: a leaf.
    out.kind = NodeOutcome::Kind::kLeaf;
    out.leaf = {res.objective, res.x};
    return out;
  }

  if (out.bound_valid && rounding_) {
    // The proposal is validated (and the incumbent updated) at commit
    // time, on the main thread, in canonical order.
    out.rounded = rounding_(res.x);
  }

  if (!out.bound_valid) {
    // The LP did not converge; pick any unfixed integer var to keep making
    // progress (bound stays -inf so nothing is pruned below).
    for (lp::VarId v : integer_vars_) {
      if (worker.cur_lo[v] < worker.cur_up[v]) {
        branch_var = v;
        found_fractional = true;
        break;
      }
    }
    if (!found_fractional) return out;  // everything fixed yet unsolved
    out.kind = NodeOutcome::Kind::kBranch;
    out.branch_var = branch_var;
    out.branch_first = 1.0;
    return out;
  }

  out.kind = NodeOutcome::Kind::kBranch;
  out.branch_var = branch_var;
  out.branch_first = res.x[branch_var] >= 0.5 ? 1.0 : 0.0;
  out.child_warm = std::make_shared<lp::Basis>(worker.simplex.save_basis());
  return out;
}

void Solver::push_children(const Node& node, const NodeOutcome& outcome) {
  for (int child = 0; child < 2; ++child) {
    const double value =
        child == 0 ? outcome.branch_first : 1.0 - outcome.branch_first;
    auto fixing = std::make_shared<Fixing>();
    fixing->parent = node.fixings;
    fixing->fixes.emplace_back(outcome.branch_var, value);
    if (value > 0.5 && group_of_[outcome.branch_var] != kNoGroup) {
      // Exactly-one group: fixing one member to 1 fixes the others to 0.
      for (lp::VarId other : groups_[group_of_[outcome.branch_var]]) {
        if (other != outcome.branch_var) fixing->fixes.emplace_back(other, 0.0);
      }
    }
    Node n;
    n.fixings = std::move(fixing);
    n.warm = outcome.child_warm;
    n.bound = outcome.bound;
    n.depth = node.depth + 1;
    n.seq = next_seq_++;
    open_.push_back(std::move(n));
  }
  stats_.max_open_size = std::max(stats_.max_open_size, open_.size());
}

void Solver::commit_outcome(const Node& node, NodeOutcome& outcome) {
  ++stats_.nodes;
  stats_.lp_iterations += outcome.lp_iterations;
  stats_.phase1_iterations += outcome.phase1_iterations;
  if (outcome.warm_hit) {
    ++stats_.warm_start_hits;
  } else {
    ++stats_.warm_start_misses;
  }
  if (stats_.nodes == 1 && outcome.bound_valid) {
    root_bound_ = outcome.bound;  // valid global LB even if we stop early
    have_root_bound_ = true;
  }

  switch (outcome.kind) {
    case NodeOutcome::Kind::kInfeasible:
      ++stats_.infeasible_nodes;
      return;
    case NodeOutcome::Kind::kAbandoned:
      return;
    case NodeOutcome::Kind::kPruned:
      ++stats_.pruned_by_bound;
      note_closed_bound(outcome.bound);
      return;
    case NodeOutcome::Kind::kLeaf:
      ++stats_.integral_leaves;
      (void)try_incumbent(outcome.leaf);
      note_closed_bound(outcome.bound);
      return;
    case NodeOutcome::Kind::kBranch:
      break;
  }

  if (outcome.rounded) {
    ++stats_.callback_candidates;
    if (try_incumbent(*outcome.rounded)) {
      ++stats_.callback_accepted;
      if (outcome.bound_valid && outcome.bound >= prune_threshold()) {
        ++stats_.pruned_by_bound;
        note_closed_bound(outcome.bound);
        return;
      }
    } else {
      ++stats_.callback_rejected;
    }
  }
  push_children(node, outcome);
}

Result Solver::solve() {
  const double start = now_seconds();
  deadline_ = start + options_.time_limit_seconds;
  stopped_ = false;
  frontier_seen_ = false;
  frontier_bound_ = 0.0;
  have_root_bound_ = false;
  root_bound_ = 0.0;
  stats_ = SearchStats{};
  // An incumbent seeded before solve() (add_initial_incumbent, or a
  // previous solve) is the trajectory's origin; restore it after the reset.
  if (has_incumbent_) stats_.incumbents.push_back({0, 0, incumbent_obj_});
  next_seq_ = 0;
  open_.clear();

  Node root;
  root.seq = next_seq_++;
  open_.push_back(std::move(root));
  stats_.max_open_size = 1;

  const std::size_t round_size = std::max<std::size_t>(1, options_.round_size);
  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  std::vector<Node> round_nodes;
  std::vector<NodeOutcome> outcomes;

  while (!open_.empty()) {
    if (out_of_budget()) {
      stopped_ = true;
      break;
    }
    ++stats_.rounds;

    // Freeze the prune threshold for the round.  It is a pure function of
    // the incumbent (committed sequentially last round), so it is
    // identical for every thread count.
    const bool have_threshold = has_incumbent_;
    const double threshold = have_threshold ? prune_threshold() : kInf;

    // Sweep: close open nodes whose subtree bound already meets the gap.
    if (have_threshold) {
      auto keep = open_.begin();
      for (auto it = open_.begin(); it != open_.end(); ++it) {
        if (it->bound >= threshold) {
          ++stats_.pruned_by_bound;
          note_closed_bound(it->bound);
        } else {
          if (keep != it) *keep = std::move(*it);
          ++keep;
        }
      }
      open_.erase(keep, open_.end());
      if (open_.empty()) break;
    }

    // Hybrid selection: best-first while the open list is small, then
    // depth-first to bound memory.  seq makes the order a strict total
    // order, so selection is deterministic however open_ is laid out.
    const bool dfs = open_.size() > kDfsOpenThreshold;
    const auto better = [dfs](const Node& a, const Node& b) {
      if (dfs) {
        if (a.depth != b.depth) return a.depth > b.depth;
        if (a.bound != b.bound) return a.bound < b.bound;
      } else {
        if (a.bound != b.bound) return a.bound < b.bound;
        if (a.depth != b.depth) return a.depth > b.depth;
      }
      return a.seq < b.seq;
    };
    std::size_t k = std::min(round_size, open_.size());
    // stats_.nodes < max_nodes here
    k = std::min(k, options_.max_nodes - stats_.nodes);
    if (k < open_.size()) {
      std::nth_element(open_.begin(),
                       open_.begin() + static_cast<std::ptrdiff_t>(k),
                       open_.end(), better);
    }
    std::sort(open_.begin(), open_.begin() + static_cast<std::ptrdiff_t>(k),
              better);
    round_nodes.assign(std::make_move_iterator(open_.begin()),
                       std::make_move_iterator(
                           open_.begin() + static_cast<std::ptrdiff_t>(k)));
    open_.erase(open_.begin(), open_.begin() + static_cast<std::ptrdiff_t>(k));

    outcomes.clear();
    outcomes.resize(k);

    const std::size_t nthreads = std::min(threads, k);
    while (workers_.size() < std::max<std::size_t>(nthreads, 1)) {
      workers_.push_back(std::make_unique<Worker>(problem_, options_.lp));
    }
    stats_.threads_used = std::max(stats_.threads_used, nthreads);

    const auto solve_guarded = [&](Worker& worker, const Node& node,
                                   NodeOutcome& out) {
      try {
        out = solve_node(worker, node, threshold, have_threshold);
      } catch (...) {
        out = NodeOutcome{};
        out.error = std::current_exception();
      }
    };

    if (nthreads <= 1) {
      for (std::size_t i = 0; i < k; ++i) {
        solve_guarded(*workers_[0], round_nodes[i], outcomes[i]);
        // Later outcomes are never observed once one node throws (the
        // commit loop rethrows in canonical order), so stop early.
        if (outcomes[i].error) break;
      }
    } else {
      std::atomic<std::size_t> cursor{0};
      const auto body = [&](std::size_t slot) {
        Worker& worker = *workers_[slot];
        for (;;) {
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= k) return;
          solve_guarded(worker, round_nodes[i], outcomes[i]);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(nthreads - 1);
      try {
        for (std::size_t slot = 1; slot < nthreads; ++slot) {
          pool.emplace_back(body, slot);
        }
      } catch (...) {
        cursor.store(k);  // drain the queue so joins return quickly
        for (std::thread& t : pool) t.join();
        throw;
      }
      body(0);
      for (std::thread& t : pool) t.join();
    }

    // Sequential commit in selection order: incumbent updates, frontier
    // bookkeeping, and child creation all happen here, on one thread, in
    // an order independent of which worker solved what.
    for (std::size_t i = 0; i < k; ++i) {
      if (outcomes[i].error) std::rethrow_exception(outcomes[i].error);
      commit_outcome(round_nodes[i], outcomes[i]);
    }
  }

  Result result;
  result.nodes = stats_.nodes;
  result.lp_iterations = stats_.lp_iterations;
  result.solve_seconds = now_seconds() - start;
  if (has_incumbent_) {
    result.objective = incumbent_obj_;
    result.x = incumbent_x_;
    if (stopped_) {
      result.status = Status::kLimitFeasible;
      // Global lower bound: the weakest of the still-open subtree bounds
      // and the closed frontier, improved by the root bound.
      double open_lb = kInf;
      bool have_open_lb = false;
      if (frontier_seen_) {
        open_lb = frontier_bound_;
        have_open_lb = true;
      }
      for (const Node& n : open_) {
        open_lb = std::min(open_lb, n.bound);
        have_open_lb = true;
      }
      double bb = have_root_bound_ ? root_bound_ : -kInf;
      if (have_open_lb) bb = std::max(bb, open_lb);
      result.best_bound = std::min(bb, incumbent_obj_);
      result.gap = std::isfinite(result.best_bound) && incumbent_obj_ != 0.0
                       ? (incumbent_obj_ - result.best_bound) /
                             std::abs(incumbent_obj_)
                       : kInf;
    } else {
      result.status = Status::kOptimal;
      result.best_bound = frontier_seen_
                              ? std::min(incumbent_obj_, frontier_bound_)
                              : incumbent_obj_;
      result.gap = incumbent_obj_ == 0.0
                       ? 0.0
                       : (incumbent_obj_ - result.best_bound) /
                             std::abs(incumbent_obj_);
    }
  } else {
    result.status = stopped_ ? Status::kLimitNoSolution : Status::kInfeasible;
    result.best_bound = -kInf;
    result.gap = kInf;
  }
  result.stats = stats_;
  return result;
}

}  // namespace cellstream::milp
