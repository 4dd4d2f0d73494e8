#pragma once
// Local-search improvement of a mapping (our implementation of the paper's
// future-work item: "design involved mapping heuristics which approach the
// optimal throughput").
//
// Hill climbing over two neighbourhoods — move one task to another PE, and
// swap the PEs of two tasks — accepting only feasibility-preserving steps
// that strictly shorten the steady-state period.  Also used inside the
// MILP mapper to turn LP roundings into strong incumbents.

#include "core/steady_state.hpp"

namespace cellstream::mapping {

struct LocalSearchOptions {
  std::size_t max_passes = 8;  ///< Full sweeps over the neighbourhoods.
  bool use_swaps = true;       ///< Enable the (more expensive) swap moves.
};

/// Improve `mapping` in place; returns the resulting period.  The input
/// must be feasible; the output stays feasible.  Every candidate is
/// evaluated through one scratch account (SteadyStateAnalysis::account);
/// when `evaluations` is given, their number is added to it.
double improve_mapping(const SteadyStateAnalysis& analysis, Mapping& mapping,
                       const LocalSearchOptions& options = {},
                       std::size_t* evaluations = nullptr);

/// Convenience: greedy-cpu start + local search.
Mapping local_search_heuristic(const SteadyStateAnalysis& analysis,
                               const LocalSearchOptions& options = {});

}  // namespace cellstream::mapping
