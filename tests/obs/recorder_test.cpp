// obs::Counters semantics: derived totals and throughputs, plus the
// end-to-end pin that a simulated run's counters reproduce the
// steady-state model's per-resource byte/compute attribution exactly
// (the audit of kMemRead/kMemWrite interface direction).

#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include "core/steady_state.hpp"
#include "sim/simulator.hpp"

namespace cellstream::obs {
namespace {

TEST(Counters, DeriveTotalsAndObservedThroughput) {
  Counters c;
  c.pe.resize(3);
  c.pe[0].tasks_executed = 2;
  c.pe[2].tasks_executed = 3;
  c.pe[1].transfers_issued = 1;
  c.pe[2].transfers_issued = 4;
  c.instance_completion = {0.25, 0.50};
  c.elapsed_seconds = 0.5;
  EXPECT_EQ(c.instances_completed(), 2u);
  EXPECT_EQ(c.total_executions(), 5u);
  EXPECT_EQ(c.total_transfers(), 5u);
  EXPECT_DOUBLE_EQ(c.observed_throughput(), 2.0 / 0.5);
  // A run that took no time has no rate (and no steady rate either).
  c.elapsed_seconds = 0.0;
  EXPECT_EQ(c.observed_throughput(), 0.0);
  EXPECT_EQ(c.steady_throughput(), 0.0);
}

TEST(Recorder, SteadyThroughputUsesMiddleHalf) {
  Counters c;
  c.pe.resize(1);
  // 8 instances: slow start (1s apart), fast middle (0.1s), slow tail.
  c.instance_completion = {1.0, 2.0, 2.1, 2.2, 2.3, 2.4, 3.4, 4.4};
  c.elapsed_seconds = 4.4;
  // Middle half = instances [2, 6): completions 2.0 .. 2.4 -> 4/0.4 inst/s.
  EXPECT_NEAR(c.steady_throughput(), 4.0 / 0.4, 1e-9);
  EXPECT_NEAR(c.observed_throughput(), 8.0 / 4.4, 1e-12);
}

// The accounting pin for the interface-direction audit: simulate a
// mapping that exercises every attribution path (remote edges in both
// directions, local edges, memory reads and writes) and require the
// observed bytes to equal the steady-state model's prediction times the
// instance count *exactly* — the simulator moves exactly the modeled
// bytes, so any discrepancy is misattribution, not noise.
TEST(Recorder, SimulatedCountersMatchSteadyStateUsageExactly) {
  TaskGraph g("attribution");
  g.add_task({"read", 0.4e-3, 0.3e-3, 0, 2048.0, 0.0, false});
  g.add_task({"mid", 0.5e-3, 0.2e-3, 0, 0.0, 0.0, false});
  g.add_task({"local", 0.3e-3, 0.2e-3, 0, 0.0, 0.0, false});
  g.add_task({"write", 0.4e-3, 0.3e-3, 0, 0.0, 1024.0, false});
  g.add_edge(0, 1, 4096.0);  // remote: PPE0 -> SPE1
  g.add_edge(1, 2, 512.0);   // local: SPE1 -> SPE1
  g.add_edge(2, 3, 8192.0);  // remote: SPE1 -> PPE0
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(4, 0);
  m.assign(1, 1);
  m.assign(2, 1);

  sim::SimOptions options;
  options.instances = 200;
  const sim::SimResult run = sim::simulate(ss, m, options);
  const ResourceUsage usage = ss.usage(m);
  const auto n = static_cast<double>(options.instances);

  ASSERT_EQ(run.counters.pe.size(), ss.platform().pe_count());
  for (PeId pe = 0; pe < ss.platform().pe_count(); ++pe) {
    const PeCounters& c = run.counters.pe[pe];
    // Bytes are sums of exact per-instance contributions: equality holds
    // to the last bit (the sim adds the same doubles the model multiplies).
    EXPECT_DOUBLE_EQ(c.bytes_in, usage.incoming_bytes[pe] * n)
        << ss.platform().pe_name(pe) << " in";
    EXPECT_DOUBLE_EQ(c.bytes_out, usage.outgoing_bytes[pe] * n)
        << ss.platform().pe_name(pe) << " out";
    // Compute accumulates one addend per execution; allow rounding drift.
    EXPECT_NEAR(c.compute_seconds, usage.compute_seconds[pe] * n,
                1e-9 * (1.0 + usage.compute_seconds[pe] * n))
        << ss.platform().pe_name(pe) << " compute";
  }
  // Spot-check the directions: the memory read lands on the reader's in
  // interface, the memory write on the writer's out interface (1g/1h).
  EXPECT_DOUBLE_EQ(run.counters.pe[0].bytes_in, (2048.0 + 8192.0) * n);
  EXPECT_DOUBLE_EQ(run.counters.pe[0].bytes_out, (4096.0 + 1024.0) * n);
  EXPECT_DOUBLE_EQ(run.counters.pe[1].bytes_in, 4096.0 * n);
  EXPECT_DOUBLE_EQ(run.counters.pe[1].bytes_out, 8192.0 * n);
  EXPECT_EQ(run.counters.total_executions(),
            static_cast<std::uint64_t>(options.instances) * g.task_count());
  EXPECT_EQ(run.counters.instances_completed(),
            static_cast<std::uint64_t>(options.instances));
  EXPECT_EQ(run.counters.domain, TimeDomain::kSimulated);
}

}  // namespace
}  // namespace cellstream::obs
