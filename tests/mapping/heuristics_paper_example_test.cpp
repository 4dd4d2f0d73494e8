// Hand-computed worked example for the paper's two heuristics (Section
// 6.3) on a diamond-and-tail graph in the style of Fig. 5:
//
//        T0              wspe(T0) = 1.0 ms   wppe(T0) = 1.2 ms
//       /  \             wspe(T3) = 0.9 ms   wppe(T3) = 1.5 ms
//      T1    T2          others: wspe 0.6 ms, wppe 1.5 ms
//       \  /             every edge carries 4 kB per instance
//        T3
//        |
//        T4 -- T5
//
// Platform: QS22 single Cell (PPE0 = PE 0, SPE0..7 = PEs 1..8).  Interface
// occupation is at most 3 edges x 4 kB / 25 GB/s ~ 0.5 us per PE, three
// orders of magnitude below every compute cost, so the steady-state period
// is exactly the largest per-PE compute load.
//
// GREEDYMEM walks T0..T5 in topological order and places each task on the
// least-memory SPE: all SPEs start empty, so each task claims a fresh SPE
// in index order -> T_k on PE k+1.  Period = max wspe = wspe(T0) = 1.0 ms.
//
// GREEDYCPU places each task on the PE with the least accumulated compute
// load over *all* PEs; the PPE (load 0) wins the first draw, so T0 lands
// on PPE0 and the rest claim fresh SPEs -> T0 on PE 0, T_k (k>0) on PE k.
// Period = max(wppe(T0), remaining wspe) = wppe(T0) = 1.2 ms.

#include <gtest/gtest.h>

#include "mapping/heuristics.hpp"

namespace cellstream::mapping {
namespace {

TaskGraph worked_example() {
  TaskGraph graph("paper-worked-example");
  graph.add_task({"T0", 1.2e-3, 1.0e-3, 0, 0.0, 0.0, false});
  graph.add_task({"T1", 1.5e-3, 0.6e-3, 0, 0.0, 0.0, false});
  graph.add_task({"T2", 1.5e-3, 0.6e-3, 0, 0.0, 0.0, false});
  graph.add_task({"T3", 1.5e-3, 0.9e-3, 0, 0.0, 0.0, false});
  graph.add_task({"T4", 1.5e-3, 0.6e-3, 0, 0.0, 0.0, false});
  graph.add_task({"T5", 1.5e-3, 0.6e-3, 0, 0.0, 0.0, false});
  graph.add_edge(0, 1, 4096.0);
  graph.add_edge(0, 2, 4096.0);
  graph.add_edge(1, 3, 4096.0);
  graph.add_edge(2, 3, 4096.0);
  graph.add_edge(3, 4, 4096.0);
  graph.add_edge(4, 5, 4096.0);
  return graph;
}

TEST(HeuristicsPaperExample, GreedyMemMapsEachTaskToAFreshSpe) {
  const SteadyStateAnalysis analysis(worked_example(),
                                     platforms::qs22_single_cell());
  const Mapping mapping = greedy_mem(analysis);
  const std::vector<PeId> expected = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(mapping.raw(), expected)
      << mapping.to_string(analysis.platform());
  EXPECT_TRUE(analysis.feasible(mapping));
  // Period = wspe(T0): the bottleneck is SPE0's compute, every interface
  // term is ~0.5 us.
  EXPECT_DOUBLE_EQ(analysis.period(mapping), 1.0e-3);
  EXPECT_DOUBLE_EQ(analysis.throughput(mapping), 1000.0);
}

TEST(HeuristicsPaperExample, GreedyCpuPutsTheFirstTaskOnThePpe) {
  const SteadyStateAnalysis analysis(worked_example(),
                                     platforms::qs22_single_cell());
  const Mapping mapping = greedy_cpu(analysis);
  const std::vector<PeId> expected = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(mapping.raw(), expected)
      << mapping.to_string(analysis.platform());
  EXPECT_TRUE(analysis.feasible(mapping));
  // Period = wppe(T0): the PPE is the compute bottleneck.
  EXPECT_DOUBLE_EQ(analysis.period(mapping), 1.2e-3);
}

TEST(HeuristicsPaperExample, GreedyMemBeatsGreedyCpuHere) {
  // The worked example is built so the memory-driven heuristic wins: the
  // CPU-driven one grabs the idle PPE for T0 even though T0 runs faster on
  // a SPE (the unrelated-machine pitfall the paper discusses).
  const SteadyStateAnalysis analysis(worked_example(),
                                     platforms::qs22_single_cell());
  EXPECT_LT(analysis.period(greedy_mem(analysis)),
            analysis.period(greedy_cpu(analysis)));
}

}  // namespace
}  // namespace cellstream::mapping
