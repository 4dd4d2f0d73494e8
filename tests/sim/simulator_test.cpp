#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "gen/apps.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"

namespace cellstream::sim {
namespace {

Task make_task(double wppe, double wspe, int peek = 0) {
  Task t;
  t.wppe = wppe;
  t.wspe = wspe;
  t.peek = peek;
  return t;
}

SimOptions fast_options(std::size_t instances = 500) {
  SimOptions o;
  o.instances = instances;
  // Make overheads negligible so analytic comparisons are sharp.
  o.dma_issue_overhead = 1e-9;
  o.dispatch_overhead = 1e-9;
  return o;
}

TEST(Simulator, SingleTaskThroughputMatchesCost) {
  TaskGraph g("solo");
  g.add_task(make_task(1e-3, 1e-3));
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  const SimResult r = simulate(ss, ppe_only_mapping(g), fast_options(200));
  EXPECT_NEAR(r.steady_throughput, 1000.0, 5.0);
  EXPECT_EQ(r.completion_times.size(), 200u);
  // Completion times strictly increase.
  for (std::size_t i = 1; i < r.completion_times.size(); ++i) {
    EXPECT_GT(r.completion_times[i], r.completion_times[i - 1]);
  }
}

TEST(Simulator, CoLocatedChainSerializes) {
  TaskGraph g("chain2");
  g.add_task(make_task(1e-3, 1e-3));
  g.add_task(make_task(2e-3, 2e-3));
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  const SimResult r = simulate(ss, ppe_only_mapping(g), fast_options());
  EXPECT_NEAR(r.steady_throughput, 1.0 / 3e-3, 5.0);
}

TEST(Simulator, RemoteChainPipelines) {
  TaskGraph g("chain2");
  g.add_task(make_task(1e-3, 1e-3));
  g.add_task(make_task(1e-3, 1e-3));
  g.add_edge(0, 1, 64.0);
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  Mapping m(2, 0);
  m.assign(1, 1);  // second task on SPE0
  const SimResult r = simulate(ss, m, fast_options());
  // Pipelined: bounded by the slower stage (1 ms), not the sum.
  EXPECT_GT(r.steady_throughput, 0.93 * 1000.0);
  EXPECT_LE(r.steady_throughput, 1000.0 * 1.001);
}

TEST(Simulator, SpeUsesWspe) {
  TaskGraph g("solo");
  g.add_task(make_task(/*wppe=*/4e-3, /*wspe=*/1e-3));
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  Mapping m(1, 1);  // SPE0
  const SimResult r = simulate(ss, m, fast_options());
  EXPECT_NEAR(r.steady_throughput, 1000.0, 10.0);
}

TEST(Simulator, BandwidthBoundTransfer) {
  // 25 MB per instance over a 25 GB/s interface -> 1000 instances/s cap.
  TaskGraph g("wide");
  g.add_task(make_task(1e-6, 1e-6));
  g.add_task(make_task(1e-6, 1e-6));
  g.add_edge(0, 1, 25.0e6);
  CellPlatform p = platforms::qs22_single_cell();
  p.local_store_bytes = 512 * 1024 * 1024;  // lift memory constraint
  p.code_bytes = 0;
  const SteadyStateAnalysis ss(g, p);
  Mapping m(2, 0);
  m.assign(1, 1);
  const SimResult r = simulate(ss, m, fast_options(2000));
  EXPECT_NEAR(r.steady_throughput, 1000.0, 25.0);
}

TEST(Simulator, NeverBeatsTheAnalyticBound) {
  gen::DagGenParams params;
  params.task_count = 20;
  params.seed = 21;
  const TaskGraph g = gen::daggen_random(params);
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  for (const char* name : {"ppe-only", "greedy-cpu", "greedy-mem"}) {
    const Mapping m = mapping::run_heuristic(name, ss);
    const SimResult r = simulate(ss, m, fast_options(800));
    EXPECT_LE(r.steady_throughput, ss.throughput(m) * 1.02) << name;
  }
}

TEST(Simulator, ReachesMostOfTheAnalyticBoundWithTinyOverheads) {
  gen::DagGenParams params;
  params.task_count = 16;
  params.seed = 33;
  const TaskGraph g = gen::daggen_random(params);
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  const Mapping m = mapping::greedy_cpu(ss);
  const SimResult r = simulate(ss, m, fast_options(2000));
  EXPECT_GE(r.steady_throughput, 0.80 * ss.throughput(m));
}

TEST(Simulator, PeekedStreamsCompleteAndThrottleStartup) {
  TaskGraph g("peeky");
  g.add_task(make_task(1e-3, 1e-3));
  g.add_task(make_task(1e-3, 1e-3, 2));  // needs 2 future instances
  g.add_edge(0, 1, 64.0);
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  Mapping m(2, 0);
  m.assign(1, 1);
  const SimResult r = simulate(ss, m, fast_options(400));
  EXPECT_EQ(r.completion_times.size(), 400u);
  EXPECT_GT(r.steady_throughput, 0.9 * 1000.0);
}

TEST(Simulator, DmaQueueLimitSerializesButCompletes) {
  // 20 producers on the PPE feeding one SPE: more than 16 concurrent
  // fetches are impossible, yet the stream must still complete.
  TaskGraph g("fanin");
  const int producers = 20;
  for (int i = 0; i < producers; ++i) {
    g.add_task(make_task(0.05e-3, 0.05e-3));
  }
  const TaskId sink = g.add_task(make_task(1e-3, 1e-3));
  for (int i = 0; i < producers; ++i) g.add_edge(i, sink, 256.0);
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  Mapping m(g.task_count(), 0);
  m.assign(sink, 1);
  EXPECT_FALSE(ss.feasible(m));  // violates constraint (1j)
  const SimResult r = simulate(ss, m, fast_options(300));
  EXPECT_EQ(r.completion_times.size(), 300u);
}

TEST(Simulator, RejectsLocalStoreOverflowByDefault) {
  TaskGraph g("fat");
  g.add_task(make_task(1e-3, 1e-3));
  g.add_task(make_task(1e-3, 1e-3));
  g.add_edge(0, 1, 200.0 * 1024.0);
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  Mapping m(2, 1);  // both on SPE0: 400 kB of buffers
  EXPECT_THROW(simulate(ss, m, fast_options(10)), Error);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const TaskGraph g = gen::audio_encoder_graph();
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  const Mapping m = mapping::greedy_cpu(ss);
  const SimResult a = simulate(ss, m, fast_options(300));
  const SimResult b = simulate(ss, m, fast_options(300));
  EXPECT_EQ(a.completion_times, b.completion_times);
  EXPECT_EQ(a.dma_transfers, b.dma_transfers);
}

TEST(Simulator, OverheadsReduceThroughput) {
  TaskGraph g("solo");
  g.add_task(make_task(1e-3, 1e-3));
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  SimOptions heavy = fast_options(300);
  heavy.dispatch_overhead = 0.5e-3;  // +50 % per instance
  const SimResult r = simulate(ss, ppe_only_mapping(g), heavy);
  EXPECT_NEAR(r.steady_throughput, 1.0 / 1.5e-3, 10.0);
  EXPECT_GT(r.counters.pe[0].overhead_seconds, 0.0);
}

TEST(Simulator, BusyAccountingAddsUp) {
  TaskGraph g("solo");
  g.add_task(make_task(1e-3, 1e-3));
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  const SimResult r = simulate(ss, ppe_only_mapping(g), fast_options(100));
  EXPECT_NEAR(r.counters.pe[0].compute_seconds, 100 * 1e-3, 1e-6);
  for (PeId pe = 1; pe < 9; ++pe) {
    EXPECT_DOUBLE_EQ(r.counters.pe[pe].compute_seconds, 0.0);
  }
}

TEST(Simulator, WindowedThroughputConvergesToSteady) {
  TaskGraph g("chain3");
  for (int i = 0; i < 3; ++i) g.add_task(make_task(1e-3, 1e-3));
  g.add_edge(0, 1, 128.0);
  g.add_edge(1, 2, 128.0);
  const CellPlatform p = platforms::qs22_single_cell();
  const SteadyStateAnalysis ss(g, p);
  Mapping m(3, 0);
  m.assign(1, 1);
  m.assign(2, 2);
  const SimResult r = simulate(ss, m, fast_options(2000));
  const auto curve = r.counters.windowed_throughput(200, 100);
  ASSERT_GT(curve.size(), 3u);
  // The tail of the curve sits near the steady throughput.
  const double last = curve.back().second;
  EXPECT_NEAR(last, r.steady_throughput, 0.05 * r.steady_throughput);
  EXPECT_THROW(r.counters.windowed_throughput(0, 1), Error);
}

TEST(Simulator, ValidatesInputs) {
  TaskGraph g("solo");
  g.add_task(make_task(1e-3, 1e-3));
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  SimOptions bad;
  bad.instances = 0;
  EXPECT_THROW(simulate(ss, ppe_only_mapping(g), bad), Error);
  EXPECT_THROW(simulate(ss, Mapping(2, 0), SimOptions{}), Error);
}

TEST(Simulator, TimeGuardDetectsOverload) {
  TaskGraph g("slow");
  g.add_task(make_task(1.0, 1.0));  // 1 s per instance
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  SimOptions o = fast_options(1000);  // needs ~1000 s
  o.max_simulated_seconds = 5.0;
  try {
    simulate(ss, ppe_only_mapping(g), o);
    FAIL() << "expected the time guard to fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("did not finish"),
              std::string::npos);
  }
}

TEST(Simulator, SingleInstanceStream) {
  TaskGraph g("chain2");
  g.add_task(make_task(1e-3, 1e-3));
  g.add_task(make_task(1e-3, 1e-3));
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(2, 0);
  m.assign(1, 1);
  const SimResult r = simulate(ss, m, fast_options(1));
  ASSERT_EQ(r.completion_times.size(), 1u);
  // One instance: both tasks run once, plus the transfer.
  EXPECT_GT(r.makespan, 2e-3);
  EXPECT_GT(r.steady_throughput, 0.0);
}

TEST(Simulator, AudioEncoderEndToEnd) {
  const TaskGraph g = gen::audio_encoder_graph();
  const CellPlatform p = platforms::playstation3();
  const SteadyStateAnalysis ss(g, p);
  const Mapping m = mapping::greedy_cpu(ss);
  const SimResult r = simulate(ss, m, fast_options(500));
  EXPECT_EQ(r.completion_times.size(), 500u);
  EXPECT_GT(r.steady_throughput, 0.0);
  EXPECT_GT(r.dma_transfers, 0u);
}

}  // namespace
}  // namespace cellstream::sim
