#pragma once
// Local-search improvement of a mapping (our implementation of the paper's
// future-work item: "design involved mapping heuristics which approach the
// optimal throughput").
//
// Hill climbing over two neighbourhoods — move one task to another PE, and
// swap the PEs of two tasks — accepting only feasibility-preserving steps
// that strictly shorten the steady-state period.  Also used inside the
// MILP mapper to turn LP roundings into strong incumbents.
//
// Every candidate is screened before it is accounted.  The search keeps
// the account of its current mapping; for a candidate it updates only
// the totals its moved task(s) touch — compute, interface and local-store
// bytes on the two PEs involved, the exact (1j)/(1k) slot counts (also
// on the SPEs that feed a task moving to or from a PPE) and, when the
// move crosses chips, the link bytes — in O(deg + 1), and takes the
// other PEs' peak from the current account's three largest.  Only a
// candidate that could still be feasible and could still beat the
// running best, with the estimate widened by a proven rounding bound
// (docs/PERFORMANCE.md §11), gets the full O(K + |E|) account
// (SteadyStateAnalysis::account + within_limits) that decides it.  The
// screen drops only candidates that account would reject, so every
// decision and period bit is the unscreened search's.

#include <cstddef>

#include "core/steady_state.hpp"

namespace cellstream::mapping {

struct LocalSearchOptions {
  std::size_t max_passes = 8;  ///< Full sweeps over the neighbourhoods.
  bool use_swaps = true;       ///< Enable the (more expensive) swap moves.
};

/// Work counters of improve_mapping.
struct LocalSearchWork {
  /// Mappings considered: the start plus every move and swap candidate.
  std::size_t candidates = 0;
  /// Of those, the ones fully accounted (the start and every candidate
  /// the screen could not reject).
  std::size_t evaluations = 0;
};

/// Improve `mapping` in place; returns the resulting period.  The input
/// must be feasible; the output stays feasible.  When `work` is given,
/// this call's counters are added to it.
double improve_mapping(const SteadyStateAnalysis& analysis, Mapping& mapping,
                       const LocalSearchOptions& options = {},
                       LocalSearchWork* work = nullptr);

/// Convenience: greedy-cpu start + local search.
Mapping local_search_heuristic(const SteadyStateAnalysis& analysis,
                               const LocalSearchOptions& options = {});

}  // namespace cellstream::mapping
