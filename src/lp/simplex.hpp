#pragma once
// Bounded-variable primal revised simplex.
//
// This is the LP engine underneath the MILP branch-and-bound that replaces
// the paper's use of CPLEX.  Design choices, sized for the mapping LPs this
// repository generates (a few thousand rows/columns, very sparse):
//
//  * Ranged rows `lo <= a.x <= up` become `a.x - s = 0` with a slack
//    variable `s` bounded by the row range, so the right-hand side is the
//    zero vector and an all-slack basis always exists.
//  * The basis is factorized by the reach-set sparse LU in sparse_lu.hpp;
//    pivots are applied as product-form (eta) updates, with periodic
//    refactorization for numerical hygiene.  FTRAN/BTRAN work on the reach
//    of their right-hand side, so each costs O(reach + eta nonzeros) plus
//    a few streaming length-m passes (seed scan, zero-image copy), not a
//    gather/divide/scatter over every position.
//  * Pricing is row-wise: reduced costs are accumulated over the rows
//    where y = B^-T g is nonzero, using a row-wise copy of A, and only the
//    columns that touches (plus those with nonzero cost in phase 2) are
//    candidates.  The ratio test, basic update and eta construction walk
//    the nonzeros of w = B^-1 a_q.  Every one of these gives the same
//    result, bit for bit, as the dense loop it replaced, so the pivot path
//    does not depend on the sparsity machinery.
//  * Phase 1 minimizes the sum of bound violations of basic variables
//    (composite / infeasibility-gradient method, no artificial columns),
//    which makes warm starts from a parent branch-and-bound node cheap.
//  * Dantzig pricing, with a Bland's-rule fallback once `stall_limit`
//    consecutive pivots make no measurable merit progress (see
//    SimplexOptions), guarantees termination.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lp/problem.hpp"

namespace cellstream::lp {

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* to_string(SolveStatus status);

/// Nonbasic/basic state of one column (structural variables first, then one
/// slack per row).
enum class VarStatus : std::uint8_t {
  kBasic,
  kAtLower,
  kAtUpper,
  kFree,  ///< Nonbasic at value 0 with no finite bound.
};

/// Snapshot of a simplex basis, reusable as a warm start (e.g. for the
/// child nodes of a branch-and-bound tree).
struct Basis {
  std::vector<VarStatus> status;       ///< Per column (structural + slack).
  std::vector<std::size_t> basic_col;  ///< Basis column of each row.

  bool empty() const { return status.empty(); }
};

/// Tolerances must be finite and nonnegative, pivot_tol strictly positive;
/// IncrementalSimplex (and so solve_lp) throws cellstream::Error otherwise.
struct SimplexOptions {
  double feasibility_tol = 1e-7;  ///< Bound violation considered zero.
  double optimality_tol = 1e-7;   ///< Reduced-cost threshold.
  double pivot_tol = 1e-8;        ///< Smallest acceptable pivot magnitude.
  std::size_t max_iterations = 200000;
  std::size_t refactor_interval = 120;  ///< Pivots between refactorizations.
  /// Consecutive pivots without measurable merit progress (phase-1
  /// infeasibility or phase-2 objective) before Bland's rule engages.  The
  /// counter is progress-based, not step-size-based, so alternating
  /// degenerate / tiny-step pivot patterns cannot evade it.
  std::size_t stall_limit = 60;
  /// Relative merit decrease per pivot that counts as progress (resets the
  /// stall counter and leaves Bland mode).
  double stall_progress_tol = 1e-10;
};

struct SimplexResult {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< Structural variable values (empty if infeasible).
  std::size_t iterations = 0;
  std::size_t phase1_iterations = 0;
};

/// Solve `problem` to optimality from the all-slack basis.  A warm start
/// goes through IncrementalSimplex::load_basis.
SimplexResult solve_lp(const Problem& problem,
                       const SimplexOptions& options = {});

/// Re-solvable simplex instance.
///
/// Branch-and-bound repeatedly re-solves the same LP with different
/// variable bounds.  IncrementalSimplex keeps the factorized basis across
/// solves: after a bound change only primal feasibility is lost, which
/// phase 1 repairs in a handful of pivots, instead of re-solving from the
/// all-slack basis every node.
class IncrementalSimplex {
 public:
  IncrementalSimplex(const Problem& problem, SimplexOptions options = {});
  ~IncrementalSimplex();  // out of line: Impl is incomplete here
  IncrementalSimplex(const IncrementalSimplex&) = delete;
  IncrementalSimplex& operator=(const IncrementalSimplex&) = delete;

  /// Change the bounds of a structural variable (branching).  Takes effect
  /// at the next solve().
  void set_variable_bounds(VarId var, double lo, double up);

  /// Solve from the current basis; returns status/objective/solution.
  SimplexResult solve();

  /// Reset the basis to all-slack (used if numerical trouble is detected).
  void reset_basis();

  /// Install an externally saved basis; returns false (and resets to the
  /// all-slack basis) if it is dimensionally wrong or singular.  The basis
  /// is refactorized from scratch, so the subsequent solve trajectory is a
  /// pure function of (problem, bounds, basis) — independent of any solves
  /// this instance ran before.  Branch-and-bound relies on that for its
  /// thread-count-invariant determinism (docs/FORMULATION.md).
  bool load_basis(const Basis& basis);

  /// Snapshot the current basis (statuses + basic columns), reloadable via
  /// load_basis on any instance of the same problem shape.
  Basis save_basis() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cellstream::lp
