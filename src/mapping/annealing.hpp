#pragma once
// Simulated-annealing mapper (our second "involved heuristic", paper
// Section 7 future work).
//
// Random single-task reassignments, accepted when they shorten the
// steady-state period or with Boltzmann probability exp(-delta/T)
// otherwise; the temperature follows a geometric cooling schedule from
// 0.2 to 1e-4 times the starting period.  Infeasible neighbours are
// always rejected, so every intermediate state is a valid mapping and the
// best state seen is returned.  Deterministic for a fixed seed.

#include <cstdint>

#include "core/steady_state.hpp"

namespace cellstream::mapping {

struct AnnealingOptions {
  std::size_t iterations = 20000;
  std::uint64_t seed = 1;
};

/// Anneal from `start` (must be feasible); returns the best mapping seen.
Mapping anneal_mapping(const SteadyStateAnalysis& analysis,
                       const Mapping& start,
                       const AnnealingOptions& options = {});

/// Convenience: greedy-cpu (or PPE-only) start + annealing.
Mapping annealing_heuristic(const SteadyStateAnalysis& analysis,
                            const AnnealingOptions& options = {});

}  // namespace cellstream::mapping
