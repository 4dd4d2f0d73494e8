#include "mapping/exhaustive.hpp"

#include <algorithm>
#include <vector>

namespace cellstream::mapping {

namespace {

void search(const SteadyStateAnalysis& analysis, Mapping& mapping, TaskId next,
            ResourceUsage& scratch, std::optional<ExhaustiveResult>& best) {
  const TaskGraph& graph = analysis.graph();
  if (next == graph.task_count()) {
    analysis.account(mapping, scratch);
    if (!analysis.within_limits(scratch)) return;
    const double period = scratch.period;
    if (!best || period < best->period) best = ExhaustiveResult{mapping, period};
    return;
  }
  const CellPlatform& platform = analysis.platform();
  const std::size_t n = platform.pe_count();
  // Symmetry reduction: SPEs are interchangeable only *within a chip*
  // (cross-chip transfers additionally pay the BIF link, so an SPE's chip
  // is part of the mapping's cost).  Canonical form: task `next` may go on
  // any PPE, any already-used SPE, or the first untouched SPE of each chip.
  const std::size_t first_spe = platform.ppe_count;
  std::vector<bool> used(n, false);
  for (TaskId t = 0; t < next; ++t) used[mapping.pe_of(t)] = true;
  std::vector<bool> chip_has_untouched(platform.chip_count, false);
  for (PeId pe = 0; pe < n; ++pe) {
    if (pe >= first_spe && !used[pe]) {
      std::vector<bool>::reference untouched =
          chip_has_untouched[platform.chip_of(pe)];
      if (untouched) continue;  // symmetric duplicate of the chip's first
      untouched = true;
    }
    mapping.assign(next, pe);
    search(analysis, mapping, next + 1, scratch, best);
  }
  mapping.assign(next, 0);
}

}  // namespace

std::optional<ExhaustiveResult> exhaustive_optimal_mapping(
    const SteadyStateAnalysis& analysis, std::size_t max_states) {
  // Upper bound on explored states under the canonical form: task t has at
  // most ppe_count + chip_count + t choices (each earlier task opens at
  // most one SPE), never more than pe_count.
  const CellPlatform& platform = analysis.platform();
  double states = 1.0;
  for (std::size_t t = 0; t < analysis.graph().task_count(); ++t) {
    states *= static_cast<double>(
        std::min(platform.ppe_count + platform.chip_count + t,
                 platform.pe_count()));
  }
  CS_ENSURE(states <= static_cast<double>(max_states),
            "exhaustive_optimal_mapping: search space too large");
  Mapping mapping(analysis.graph().task_count(), 0);
  ResourceUsage scratch;  // the account of every complete mapping
  std::optional<ExhaustiveResult> best;
  search(analysis, mapping, 0, scratch, best);
  return best;
}

}  // namespace cellstream::mapping
