#pragma once
// Test-local reference: improve_mapping as it was before candidates were
// screened — every move and swap candidate goes through the full account
// (SteadyStateAnalysis::account + within_limits).  It is kept only to
// check the screened search against
// (tests/mapping/local_search_equivalence_test.cpp); nothing in src/ uses
// it.

#include <cstddef>

#include "core/steady_state.hpp"
#include "mapping/local_search.hpp"

namespace cellstream::reference {

namespace detail {

struct Search {
  const SteadyStateAnalysis& analysis;
  ResourceUsage scratch;
  std::size_t evaluations = 0;

  bool evaluate(const Mapping& mapping) {
    ++evaluations;
    analysis.account(mapping, scratch);
    return analysis.within_limits(scratch);
  }
};

inline bool move_pass(Search& search, Mapping& mapping, double& period) {
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

inline bool swap_pass(Search& search, Mapping& mapping, double& period) {
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

}  // namespace detail

/// The unscreened search; `evaluations` (when given) gains the number of
/// full accounts, one per candidate plus one for the start.
inline double improve_mapping(const SteadyStateAnalysis& analysis,
                              Mapping& mapping,
                              const mapping::LocalSearchOptions& options = {},
                              std::size_t* evaluations = nullptr) {
  detail::Search search{analysis, {}, 0};
  CS_ENSURE(search.evaluate(mapping),
            "improve_mapping: starting mapping is infeasible");
  double period = search.scratch.period;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = detail::move_pass(search, mapping, period);
    if (options.use_swaps) {
      improved = detail::swap_pass(search, mapping, period) || improved;
    }
    if (!improved) break;
  }
  if (evaluations != nullptr) *evaluations += search.evaluations;
  return period;
}

}  // namespace cellstream::reference
