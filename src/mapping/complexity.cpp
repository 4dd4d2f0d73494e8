#include "mapping/complexity.hpp"

#include "core/steady_state.hpp"

namespace cellstream::mapping {

TaskGraph reduce_to_cell_mapping(const TwoMachineInstance& instance) {
  CS_ENSURE(!instance.lengths.empty(), "reduction: empty instance");
  CS_ENSURE(instance.bound > 0.0, "reduction: non-positive bound");
  TaskGraph graph("theorem1_reduction");
  for (std::size_t k = 0; k < instance.lengths.size(); ++k) {
    Task t;
    // Not "T" + to_string(...): see TaskGraph::add_task.
    t.name = std::to_string(k + 1).insert(0, 1, 'T');
    t.wppe = instance.lengths[k][0];
    t.wspe = instance.lengths[k][1];
    graph.add_task(t);
  }
  // A simple chain with neglected communication: data_{k,k+1} = 0.
  for (std::size_t k = 0; k + 1 < instance.lengths.size(); ++k) {
    graph.add_edge(k, k + 1, 0.0);
  }
  graph.validate();
  return graph;
}

CellPlatform reduction_platform() {
  CellPlatform p;
  p.ppe_count = 1;
  p.spe_count = 1;
  // The proof ignores memory and DMA constraints; make them vacuous so the
  // equivalence is exact (Section 3.2 drops them explicitly).
  p.local_store_bytes = static_cast<std::size_t>(1) << 40;
  p.code_bytes = 0;
  p.spe_dma_slots = static_cast<std::size_t>(-1) / 2;
  p.ppe_to_spe_dma_slots = static_cast<std::size_t>(-1) / 2;
  return p;
}

bool two_machine_schedulable(const TwoMachineInstance& instance) {
  const std::size_t n = instance.lengths.size();
  CS_ENSURE(n <= 24, "two_machine_schedulable: instance too large");
  for (std::size_t mask = 0; mask < (static_cast<std::size_t>(1) << n);
       ++mask) {
    double load0 = 0.0, load1 = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (mask & (static_cast<std::size_t>(1) << k)) {
        load1 += instance.lengths[k][1];
      } else {
        load0 += instance.lengths[k][0];
      }
    }
    if (load0 <= instance.bound + 1e-12 && load1 <= instance.bound + 1e-12) {
      return true;
    }
  }
  return false;
}

bool cell_mapping_reaches_bound(const TwoMachineInstance& instance) {
  const TaskGraph graph = reduce_to_cell_mapping(instance);
  const CellPlatform platform = reduction_platform();
  const SteadyStateAnalysis analysis(graph, platform);
  const std::size_t n = graph.task_count();
  CS_ENSURE(n <= 24, "cell_mapping_reaches_bound: instance too large");
  Mapping mapping(n, 0);
  ResourceUsage scratch;  // the account of every mask
  for (std::size_t mask = 0; mask < (static_cast<std::size_t>(1) << n);
       ++mask) {
    for (std::size_t k = 0; k < n; ++k) {
      mapping.assign(k, (mask >> k) & 1);
    }
    analysis.account(mapping, scratch);
    if (!analysis.within_limits(scratch)) continue;
    // Throughput >= 1/B  <=>  period <= B.
    if (scratch.period <= instance.bound + 1e-12) return true;
  }
  return false;
}

}  // namespace cellstream::mapping
