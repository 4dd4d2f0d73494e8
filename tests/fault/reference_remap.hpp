#pragma once
// Test-local reference: the failover remap as it was before it became the
// paper's greedy heuristics over the surviving PEs — its own load tallies,
// fit test and placement step, and a GREEDYMEM fallback to the surviving
// PPE with the least compute load.  It is kept only to check
// mapping::remap_after_failure against
// (tests/fault/remap_equivalence_test.cpp); nothing in src/ uses it.  The probe counts the orphans that reached the
// GREEDYMEM fallback, the one place the two rules may differ.

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "core/steady_state.hpp"
#include "support/error.hpp"

namespace cellstream::reference {

struct RemapProbe {
  /// greedy-mem orphans no surviving SPE could take.
  std::size_t fallbacks = 0;
  /// Those among them with two or more surviving PPEs to choose from.
  std::size_t multi_ppe_fallbacks = 0;
};

inline Mapping remap_after_failure(const SteadyStateAnalysis& analysis,
                                   const Mapping& mapping,
                                   const std::vector<PeId>& failed_pes,
                                   const std::string& strategy = "greedy-mem",
                                   RemapProbe* probe = nullptr) {
  CS_ENSURE(strategy == "greedy-mem" || strategy == "greedy-cpu",
            "remap_after_failure: unknown strategy '" + strategy + "'");
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  CS_ENSURE(mapping.task_count() == graph.task_count(),
            "remap_after_failure: mapping/graph size mismatch");

  std::vector<char> dead(platform.pe_count(), 0);
  for (PeId pe : failed_pes) {
    CS_ENSURE(pe < platform.pe_count(),
              "remap_after_failure: failed PE out of range");
    dead[pe] = 1;
  }
  std::size_t surviving_ppes = 0;
  for (PeId pe = 0; pe < platform.ppe_count; ++pe) {
    if (!dead[pe]) ++surviving_ppes;
  }
  CS_ENSURE(surviving_ppes > 0,
            "remap_after_failure: no surviving PPE — the stream cannot be "
            "hosted without main-memory access");

  // Load accounting over the surviving assignment.
  std::vector<double> memory_used(platform.pe_count(), 0.0);
  std::vector<double> compute_load(platform.pe_count(), 0.0);
  Mapping result = mapping;
  std::vector<TaskId> orphans;
  for (TaskId t : graph.topological_order()) {
    const PeId pe = mapping.pe_of(t);
    if (dead[pe]) {
      orphans.push_back(t);
      continue;
    }
    const Task& task = graph.task(t);
    compute_load[pe] += platform.is_ppe(pe) ? task.wppe : task.wspe;
    if (platform.is_spe(pe)) memory_used[pe] += analysis.task_buffer_bytes(t);
  }

  const double budget = static_cast<double>(platform.buffer_budget());
  const auto fits = [&](TaskId t, PeId pe) {
    if (dead[pe]) return false;
    if (platform.is_ppe(pe)) return true;
    return memory_used[pe] + analysis.task_buffer_bytes(t) <= budget;
  };
  const auto place = [&](TaskId t, PeId pe) {
    result.assign(t, pe);
    const Task& task = graph.task(t);
    compute_load[pe] += platform.is_ppe(pe) ? task.wppe : task.wspe;
    if (platform.is_spe(pe)) memory_used[pe] += analysis.task_buffer_bytes(t);
  };

  for (TaskId t : orphans) {
    PeId best = platform.pe_count();  // sentinel: nothing chosen yet
    if (strategy == "greedy-mem") {
      // Least-occupied surviving SPE local store; surviving PPE fallback.
      double least_memory = std::numeric_limits<double>::infinity();
      for (PeId pe = platform.ppe_count; pe < platform.pe_count(); ++pe) {
        if (!fits(t, pe)) continue;
        if (memory_used[pe] < least_memory) {
          least_memory = memory_used[pe];
          best = pe;
        }
      }
      if (best == platform.pe_count() && probe != nullptr) {
        ++probe->fallbacks;
        if (surviving_ppes > 1) ++probe->multi_ppe_fallbacks;
      }
    }
    if (best == platform.pe_count()) {
      // greedy-cpu, or greedy-mem with no SPE able to take the buffers:
      // least compute load over every surviving PE that fits.
      double least_load = std::numeric_limits<double>::infinity();
      for (PeId pe = 0; pe < platform.pe_count(); ++pe) {
        if (!fits(t, pe)) continue;
        if (compute_load[pe] < least_load) {
          least_load = compute_load[pe];
          best = pe;
        }
      }
    }
    CS_ENSURE(best != platform.pe_count(),
              "remap_after_failure: no surviving PE can host task " +
                  graph.task(t).name);
    place(t, best);
  }
  return result;
}

}  // namespace cellstream::reference
