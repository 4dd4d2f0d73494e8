#include "mapping/local_search.hpp"

#include "mapping/heuristics.hpp"

namespace cellstream::mapping {

namespace {

/// The state one improve_mapping call shares between its passes: the
/// scratch account every candidate is evaluated into, and their count.
struct Search {
  const SteadyStateAnalysis& analysis;
  ResourceUsage scratch;
  std::size_t evaluations = 0;

  /// Account `mapping` into the scratch; true when it meets (1i)-(1k),
  /// and then scratch.period is its period.
  bool evaluate(const Mapping& mapping) {
    ++evaluations;
    analysis.account(mapping, scratch);
    return analysis.within_limits(scratch);
  }
};

/// Try every single-task move; apply the first strict improvement found
/// per task (first-improvement keeps a pass linear in K * n).
bool move_pass(Search& search, Mapping& mapping, double& period) {
  const std::size_t n = search.analysis.platform().pe_count();
  bool improved = false;
  for (TaskId t = 0; t < mapping.task_count(); ++t) {
    const PeId original = mapping.pe_of(t);
    PeId best_pe = original;
    double best_period = period;
    for (PeId pe = 0; pe < n; ++pe) {
      if (pe == original) continue;
      mapping.assign(t, pe);
      if (search.evaluate(mapping) &&
          search.scratch.period < best_period - 1e-15) {
        best_period = search.scratch.period;
        best_pe = pe;
      }
    }
    mapping.assign(t, best_pe);
    if (best_pe != original) {
      period = best_period;
      improved = true;
    }
  }
  return improved;
}

/// Try swapping the hosts of every task pair on distinct PEs.
bool swap_pass(Search& search, Mapping& mapping, double& period) {
  bool improved = false;
  for (TaskId a = 0; a < mapping.task_count(); ++a) {
    for (TaskId b = a + 1; b < mapping.task_count(); ++b) {
      const PeId pa = mapping.pe_of(a);
      const PeId pb = mapping.pe_of(b);
      if (pa == pb) continue;
      mapping.assign(a, pb);
      mapping.assign(b, pa);
      if (search.evaluate(mapping) &&
          search.scratch.period < period - 1e-15) {
        period = search.scratch.period;
        improved = true;
        continue;  // keep the swap
      }
      mapping.assign(a, pa);
      mapping.assign(b, pb);
    }
  }
  return improved;
}

}  // namespace

double improve_mapping(const SteadyStateAnalysis& analysis, Mapping& mapping,
                       const LocalSearchOptions& options,
                       std::size_t* evaluations) {
  Search search{analysis, {}, 0};
  CS_ENSURE(search.evaluate(mapping),
            "improve_mapping: starting mapping is infeasible");
  double period = search.scratch.period;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = move_pass(search, mapping, period);
    if (options.use_swaps) {
      improved = swap_pass(search, mapping, period) || improved;
    }
    if (!improved) break;
  }
  if (evaluations != nullptr) *evaluations += search.evaluations;
  return period;
}

Mapping local_search_heuristic(const SteadyStateAnalysis& analysis,
                               const LocalSearchOptions& options) {
  Mapping mapping = greedy_cpu(analysis);
  if (!analysis.feasible(mapping)) mapping = ppe_only(analysis);
  improve_mapping(analysis, mapping, options);
  return mapping;
}

}  // namespace cellstream::mapping
