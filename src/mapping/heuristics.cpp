#include "mapping/heuristics.hpp"

#include <algorithm>
#include <limits>

namespace cellstream::mapping {

namespace {

/// Incremental per-PE accounting shared by the greedy strategies.
struct GreedyState {
  const SteadyStateAnalysis& ss;
  const CellPlatform& platform;
  std::vector<double> memory_used;   // local-store bytes per PE (SPE only)
  std::vector<double> compute_load;  // seconds per instance per PE

  explicit GreedyState(const SteadyStateAnalysis& analysis)
      : ss(analysis),
        platform(analysis.platform()),
        memory_used(analysis.platform().pe_count(), 0.0),
        compute_load(analysis.platform().pe_count(), 0.0) {}

  double task_cost(TaskId t, PeId pe) const {
    const Task& task = ss.graph().task(t);
    return platform.is_ppe(pe) ? task.wppe : task.wspe;
  }

  bool fits(TaskId t, PeId pe) const {
    if (platform.is_ppe(pe)) return true;  // main memory unconstrained
    return memory_used[pe] + ss.task_buffer_bytes(t) <=
           static_cast<double>(platform.buffer_budget());
  }

  void place(TaskId t, PeId pe, Mapping& mapping) {
    mapping.assign(t, pe);
    compute_load[pe] += task_cost(t, pe);
    if (platform.is_spe(pe)) memory_used[pe] += ss.task_buffer_bytes(t);
  }
};

}  // namespace

Mapping greedy_mem(const SteadyStateAnalysis& analysis) {
  GreedyState state(analysis);
  const TaskGraph& graph = analysis.graph();
  Mapping mapping(graph.task_count(), 0);
  for (TaskId t : graph.topological_order()) {
    PeId best = 0;  // PPE fallback
    double least_memory = std::numeric_limits<double>::infinity();
    for (PeId pe = state.platform.ppe_count; pe < state.platform.pe_count();
         ++pe) {
      if (!state.fits(t, pe)) continue;
      if (state.memory_used[pe] < least_memory) {
        least_memory = state.memory_used[pe];
        best = pe;
      }
    }
    state.place(t, best, mapping);
  }
  return mapping;
}

Mapping greedy_cpu(const SteadyStateAnalysis& analysis) {
  GreedyState state(analysis);
  const TaskGraph& graph = analysis.graph();
  Mapping mapping(graph.task_count(), 0);
  for (TaskId t : graph.topological_order()) {
    PeId best = 0;
    double least_load = std::numeric_limits<double>::infinity();
    for (PeId pe = 0; pe < state.platform.pe_count(); ++pe) {
      if (!state.fits(t, pe)) continue;
      if (state.compute_load[pe] < least_load) {
        least_load = state.compute_load[pe];
        best = pe;
      }
    }
    state.place(t, best, mapping);
  }
  return mapping;
}

Mapping ppe_only(const SteadyStateAnalysis& analysis) {
  return ppe_only_mapping(analysis.graph());
}

Mapping round_robin(const SteadyStateAnalysis& analysis) {
  GreedyState state(analysis);
  const TaskGraph& graph = analysis.graph();
  Mapping mapping(graph.task_count(), 0);
  PeId next = 0;
  for (TaskId t : graph.topological_order()) {
    const std::size_t n = state.platform.pe_count();
    PeId chosen = 0;  // PPE fallback always fits
    for (std::size_t probe = 0; probe < n; ++probe) {
      const PeId pe = (next + probe) % n;
      if (state.fits(t, pe)) {
        chosen = pe;
        next = (pe + 1) % n;
        break;
      }
    }
    state.place(t, chosen, mapping);
  }
  return mapping;
}

Mapping greedy_period(const SteadyStateAnalysis& analysis) {
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  GreedyState state(analysis);
  Mapping mapping(graph.task_count(), 0);
  ResourceUsage scratch;  // the account of every partial mapping
  for (TaskId t : graph.topological_order()) {
    PeId best = 0;
    double best_period = std::numeric_limits<double>::infinity();
    for (PeId pe = 0; pe < platform.pe_count(); ++pe) {
      if (!state.fits(t, pe)) continue;
      mapping.assign(t, pe);
      // Evaluate the partial mapping: tasks not yet placed sit on PPE0,
      // which biases toward spreading early, exactly what we want from a
      // constructive heuristic.
      analysis.account(mapping, scratch);
      const double period = scratch.period;
      if (period < best_period) {
        best_period = period;
        best = pe;
      }
    }
    state.place(t, best, mapping);
  }
  return mapping;
}

Mapping run_heuristic(const std::string& name,
                      const SteadyStateAnalysis& analysis) {
  if (name == "greedy-mem") return greedy_mem(analysis);
  if (name == "greedy-cpu") return greedy_cpu(analysis);
  if (name == "ppe-only") return ppe_only(analysis);
  if (name == "round-robin") return round_robin(analysis);
  if (name == "greedy-period") return greedy_period(analysis);
  throw Error("run_heuristic: unknown heuristic '" + name + "'");
}

}  // namespace cellstream::mapping
