#include "mapping/heuristics.hpp"

#include <algorithm>
#include <limits>

#include "mapping/milp_mapper.hpp"
#include "support/error.hpp"

namespace cellstream::mapping {

namespace {

/// Incremental per-PE accounting shared by the greedy strategies.
struct GreedyState {
  const SteadyStateAnalysis& ss;
  const CellPlatform& platform;
  std::vector<double> memory_used;   // local-store bytes per PE (SPE only)
  std::vector<double> compute_load;  // seconds per instance per PE
  PeId fallback = 0;  // GREEDYMEM's host when no SPE fits: PPE0 if usable

  explicit GreedyState(const SteadyStateAnalysis& analysis)
      : ss(analysis),
        platform(analysis.platform()),
        memory_used(analysis.platform().pe_count(), 0.0),
        compute_load(analysis.platform().pe_count(), 0.0) {}

  /// Take a failed PE out of every choice: with infinite tallies it fits
  /// no task and never has the least load.  The fallback moves to the
  /// next PPE when PPE0 fails.
  void fail(PeId pe) {
    memory_used[pe] = std::numeric_limits<double>::infinity();
    compute_load[pe] = std::numeric_limits<double>::infinity();
    if (pe == fallback) ++fallback;
  }

  double task_cost(TaskId t, PeId pe) const {
    const Task& task = ss.graph().task(t);
    return platform.is_ppe(pe) ? task.wppe : task.wspe;
  }

  bool fits(TaskId t, PeId pe) const {
    if (platform.is_ppe(pe)) return true;  // main memory unconstrained
    return memory_used[pe] + ss.task_buffer_bytes(t) <=
           static_cast<double>(platform.buffer_budget());
  }

  /// GREEDYMEM: the least-occupied SPE local store that fits, else the
  /// fallback PPE.
  PeId least_memory(TaskId t) const {
    PeId best = fallback;
    double least_memory = std::numeric_limits<double>::infinity();
    for (PeId pe = platform.ppe_count; pe < platform.pe_count(); ++pe) {
      if (!fits(t, pe)) continue;
      if (memory_used[pe] < least_memory) {
        least_memory = memory_used[pe];
        best = pe;
      }
    }
    return best;
  }

  /// GREEDYCPU: the least compute load over every PE that fits.
  PeId least_load(TaskId t) const {
    PeId best = fallback;
    double least_load = std::numeric_limits<double>::infinity();
    for (PeId pe = 0; pe < platform.pe_count(); ++pe) {
      if (!fits(t, pe)) continue;
      if (compute_load[pe] < least_load) {
        least_load = compute_load[pe];
        best = pe;
      }
    }
    return best;
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
    state.place(t, state.least_memory(t), mapping);
  }
  return mapping;
}

Mapping greedy_cpu(const SteadyStateAnalysis& analysis) {
  GreedyState state(analysis);
  const TaskGraph& graph = analysis.graph();
  Mapping mapping(graph.task_count(), 0);
  for (TaskId t : graph.topological_order()) {
    state.place(t, state.least_load(t), mapping);
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

namespace {

/// RemapStrategy names, in enumerator order.
constexpr const char* kRemapNames[] = {"greedy-mem", "greedy-cpu", "milp"};

/// Time budget of the kMilp remap.
constexpr double kMilpRemapSeconds = 2.0;

/// The kMilp remap: the mapping MILP on the platform minus `failed_pe`,
/// seeded with the greedy-mem remap in the reduced PE numbering, so the
/// solver starts from a configuration the stream could resume on.  PPEs
/// keep the low indices in both numberings, so removing one PE is a shift
/// each way.  Multi-chip platforms keep the greedy remap: deleting one PE
/// from a chip-block numbering would re-partition the chips, so the
/// reduced formulation would model the wrong cross-chip link.
Mapping milp_remap_after_failure(const SteadyStateAnalysis& analysis,
                                 const Mapping& mapping, PeId failed_pe) {
  const Mapping greedy = remap_after_failure(analysis, mapping, failed_pe);
  const CellPlatform& platform = analysis.platform();
  if (platform.chip_count > 1) return greedy;

  CellPlatform reduced = platform;
  if (platform.is_ppe(failed_pe)) {
    --reduced.ppe_count;
  } else {
    --reduced.spe_count;
  }
  const SteadyStateAnalysis reduced_analysis(analysis.graph(), reduced,
                                             analysis.buffer_policy());
  Mapping warm(mapping.task_count(), 0);
  for (TaskId t = 0; t < greedy.task_count(); ++t) {
    const PeId pe = greedy.pe_of(t);
    warm.assign(t, pe > failed_pe ? pe - 1 : pe);
  }

  MilpMapperOptions options;
  options.milp.time_limit_seconds = kMilpRemapSeconds;
  options.extra_incumbents.push_back(std::move(warm));
  const MilpMapperResult solved =
      solve_optimal_mapping(reduced_analysis, options);

  Mapping result(mapping.task_count(), 0);
  for (TaskId t = 0; t < solved.mapping.task_count(); ++t) {
    const PeId pe = solved.mapping.pe_of(t);
    result.assign(t, pe >= failed_pe ? pe + 1 : pe);
  }
  return result;
}

}  // namespace

const char* to_string(RemapStrategy strategy) {
  return kRemapNames[static_cast<int>(strategy)];
}

RemapStrategy parse_remap_strategy(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kRemapNames); ++i) {
    if (name == kRemapNames[i]) return static_cast<RemapStrategy>(i);
  }
  throw Error("invalid failover strategy '" + name +
              "' (greedy-mem | greedy-cpu | milp)");
}

Mapping remap_after_failure(const SteadyStateAnalysis& analysis,
                            const Mapping& mapping, PeId failed,
                            RemapStrategy strategy) {
  if (strategy == RemapStrategy::kMilp) {
    return milp_remap_after_failure(analysis, mapping, failed);
  }
  const bool by_memory = strategy == RemapStrategy::kGreedyMem;
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  CS_ENSURE(mapping.task_count() == graph.task_count(),
            "remap_after_failure: mapping/graph size mismatch");
  CS_ENSURE(failed < platform.pe_count(),
            "remap_after_failure: failed PE out of range");
  CS_ENSURE(!platform.is_ppe(failed) || platform.ppe_count > 1,
            "remap_after_failure: no surviving PPE — the stream cannot be "
            "hosted without main-memory access");

  // The survivors' loads first, then the orphans on top of them, both in
  // topological order.
  GreedyState state(analysis);
  state.fail(failed);
  Mapping result = mapping;
  const std::vector<TaskId> order = graph.topological_order();
  for (TaskId t : order) {
    if (mapping.pe_of(t) != failed) state.place(t, mapping.pe_of(t), result);
  }
  for (TaskId t : order) {
    if (mapping.pe_of(t) == failed) {
      state.place(t, by_memory ? state.least_memory(t) : state.least_load(t),
                  result);
    }
  }
  return result;
}

void count_migration(const SteadyStateAnalysis& analysis,
                     const Mapping& before, const Mapping& after,
                     obs::FaultStats& faults) {
  for (TaskId t = 0; t < before.task_count(); ++t) {
    if (after.pe_of(t) != before.pe_of(t)) {
      ++faults.migrated_tasks;
      faults.migrated_bytes += analysis.task_buffer_bytes(t);
    }
  }
}

}  // namespace cellstream::mapping
