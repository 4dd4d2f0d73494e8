// Simulated drain -> remap -> migrate -> resume: a fail-stop mid-stream
// must complete the whole stream (I8), run the tail on a degraded mapping
// that matches the reduced-platform prediction (I9), and charge an honest
// downtime — all checked through the same oracle the fuzz driver uses.

#include "fault/failover.hpp"

#include <gtest/gtest.h>

#include <string>

#include "check/invariants.hpp"
#include "mapping/heuristics.hpp"
#include "support/error.hpp"

namespace cellstream::fault {
namespace {

/// The paper's worked example (Fig. 2): six tasks, all edges 4 kB, one
/// task per SPE, steady-state period exactly T0's 1.0 ms.
struct WorkedExample {
  TaskGraph graph{"paper-worked-example"};
  Mapping mapping{0, 0};
  WorkedExample() {
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
    mapping = Mapping(6, 0);
    for (TaskId t = 0; t < 6; ++t) mapping.assign(t, t + 1);
  }
};

TEST(FailoverSim, FailStopMidStreamCompletesWithInvariantsGreen) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());

  FaultPlan plan;
  plan.pe_failure = PeFailure{1, 150};  // SPE0, the bottleneck, hosts T0

  FailoverOptions options;
  options.sim.instances = 400;
  options.sim.record_trace = true;
  const FailoverOutcome outcome =
      run_with_failover(ss, ex.mapping, plan, options);

  ASSERT_TRUE(outcome.failover_performed);
  ASSERT_EQ(outcome.phases.size(), 2u);
  EXPECT_EQ(outcome.phases[0].completion_times.size(), 150u);
  EXPECT_EQ(outcome.phases[1].completion_times.size(), 250u);
  EXPECT_EQ(outcome.result.completion_times.size(), 400u);
  EXPECT_EQ(outcome.post_mapping.pe_of(0), outcome.post_mapping.pe_of(0));
  EXPECT_NE(outcome.post_mapping.pe_of(0), 1u);  // T0 left the dead PE
  EXPECT_GT(outcome.downtime_seconds, 0.0);
  EXPECT_EQ(outcome.result.faults.failovers, 1);
  EXPECT_EQ(outcome.result.faults.failed_pe, 1);
  EXPECT_EQ(outcome.result.faults.fail_instance, 150);
  EXPECT_GE(outcome.result.faults.migrated_tasks, 1);

  const check::InvariantReport report =
      check::check_failover_invariants(ss, outcome);
  for (const check::Violation& v : report.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
  EXPECT_TRUE(report.ok());
}

// The phases own the trace; the whole-stream result holds none, and the
// stitched view has every phase's events once, the later phase shifted.
TEST(FailoverSim, EachTraceEventIsStoredOnce) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());
  FailoverOptions options;
  options.sim.instances = 400;
  options.sim.record_trace = true;

  FaultPlan split;
  split.pe_failure = PeFailure{1, 150};
  FaultPlan transient;
  transient.seed = 5;
  transient.dma = {0.05, 4, 2.0e-5, 0.5};
  for (const FaultPlan* plan : {&split, &transient}) {
    const FailoverOutcome outcome =
        run_with_failover(ss, ex.mapping, *plan, options);
    EXPECT_TRUE(outcome.result.trace.empty());
    std::size_t events = 0;
    for (const sim::SimResult& phase : outcome.phases) {
      EXPECT_FALSE(phase.trace.empty());
      events += phase.trace.size();
    }
    const std::vector<obs::TraceEvent> stitched = stitched_trace(outcome);
    EXPECT_EQ(stitched.size(), events);
    EXPECT_EQ(stitched.capacity(), stitched.size());

    // Phase 1 (or the only phase) is copied as is; phase 2 follows it.
    const std::vector<obs::TraceEvent>& first = outcome.phases[0].trace;
    EXPECT_EQ(stitched.front().start, first.front().start);
    EXPECT_EQ(stitched[first.size() - 1].end, first.back().end);
    if (outcome.phases.size() == 2) {
      const obs::TraceEvent& resumed = stitched[first.size()];
      const obs::TraceEvent& own = outcome.phases[1].trace.front();
      EXPECT_EQ(resumed.start, own.start + outcome.phases[0].makespan +
                                   outcome.downtime_seconds);
      EXPECT_EQ(resumed.instance, own.instance + 150);
    }
  }
}

TEST(FailoverSim, DegradedThroughputMatchesReducedPlatformPrediction) {
  // Six tasks on a six-SPE platform: every SPE is occupied, so losing one
  // forces two tasks to share a PE — a genuine degradation (on the full
  // QS22 the remap would just claim an idle spare SPE and lose nothing).
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_with_spes(6));
  const double healthy = ss.throughput(ex.mapping);
  EXPECT_DOUBLE_EQ(healthy, 1000.0);

  FaultPlan plan;
  plan.pe_failure = PeFailure{1, 200};
  FailoverOptions options;
  options.sim.instances = 600;
  const FailoverOutcome outcome =
      run_with_failover(ss, ex.mapping, plan, options);

  // Losing the bottleneck SPE forces T0 to share a PE: the reduced
  // platform cannot sustain the healthy rate.
  EXPECT_LT(outcome.predicted_post_throughput, healthy);
  EXPECT_GT(outcome.predicted_post_throughput, 0.0);

  // Phase 2's steady throughput converges on that prediction (I9's view;
  // the oracle enforces the one-sided bound, here we pin both sides).
  const sim::SimResult& tail = outcome.phases.back();
  EXPECT_NEAR(tail.steady_throughput, outcome.predicted_post_throughput,
              0.05 * outcome.predicted_post_throughput);

  // The stitched stream is slower than an uninterrupted run but faster
  // than running degraded from the start.
  EXPECT_LT(outcome.result.counters.observed_throughput(), healthy);
  EXPECT_GT(outcome.result.counters.observed_throughput(),
            0.95 * outcome.predicted_post_throughput);
}

TEST(FailoverSim, MilpRemapIsAtLeastAsGoodAsGreedy) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());

  FaultPlan plan;
  plan.pe_failure = PeFailure{1, 100};
  FailoverOptions greedy;
  greedy.sim.instances = 200;
  greedy.strategy = mapping::RemapStrategy::kGreedyMem;
  FailoverOptions milp = greedy;
  milp.strategy = mapping::RemapStrategy::kMilp;

  const FailoverOutcome g = run_with_failover(ss, ex.mapping, plan, greedy);
  const FailoverOutcome m = run_with_failover(ss, ex.mapping, plan, milp);
  EXPECT_GE(m.predicted_post_throughput,
            g.predicted_post_throughput * (1.0 - 1e-9));
  // Both remaps evacuate the dead PE.
  for (TaskId t = 0; t < ex.graph.task_count(); ++t) {
    EXPECT_NE(g.post_mapping.pe_of(t), 1u);
    EXPECT_NE(m.post_mapping.pe_of(t), 1u);
  }
}

TEST(FailoverSim, TransientOnlyPlanRunsSinglePhase) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());

  FaultPlan plan;
  plan.seed = 5;
  plan.dma = {0.05, 4, 2.0e-5, 0.5};
  plan.slowdowns.push_back({1, 50, 80, 2.0});

  FailoverOptions options;
  options.sim.instances = 300;
  options.sim.record_trace = true;
  const FailoverOutcome outcome =
      run_with_failover(ss, ex.mapping, plan, options);

  EXPECT_FALSE(outcome.failover_performed);
  ASSERT_EQ(outcome.phases.size(), 1u);
  EXPECT_EQ(outcome.result.completion_times.size(), 300u);
  EXPECT_GT(outcome.result.faults.dma_retries, 0);
  EXPECT_GT(outcome.result.faults.slowdown_seconds, 0.0);
  EXPECT_EQ(outcome.result.faults.failovers, 0);

  const check::InvariantReport report =
      check::check_failover_invariants(ss, outcome);
  for (const check::Violation& v : report.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(FailoverSim, ReplayIsDeterministicUnderFaults) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());

  FaultPlan plan = FaultPlan::random(21, ss.platform(), 400);
  plan.dma.rate = std::max(plan.dma.rate, 0.05);
  FailoverOptions options;
  options.sim.instances = 400;
  const FailoverOutcome a = run_with_failover(ss, ex.mapping, plan, options);
  const FailoverOutcome b = run_with_failover(ss, ex.mapping, plan, options);

  ASSERT_EQ(a.result.completion_times.size(),
            b.result.completion_times.size());
  for (std::size_t i = 0; i < a.result.completion_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.result.completion_times[i],
                     b.result.completion_times[i]);
  }
  EXPECT_EQ(a.result.faults.dma_retries, b.result.faults.dma_retries);
  EXPECT_DOUBLE_EQ(a.result.faults.backoff_seconds,
                   b.result.faults.backoff_seconds);
  EXPECT_DOUBLE_EQ(a.downtime_seconds, b.downtime_seconds);
}

// A typed strategy cannot carry an unknown name: outside input is read by
// the parser, which refuses one and lists the names it knows.
TEST(FailoverSim, UnknownStrategyNameIsRefusedByTheParser) {
  for (const char* name : {"bogus", "", "GREEDY-MEM", "greedy-period"}) {
    try {
      mapping::parse_remap_strategy(name);
      ADD_FAILURE() << "accepted '" << name << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "invalid failover strategy '" + std::string(name) +
                    "' (greedy-mem | greedy-cpu | milp)");
    }
  }
}

TEST(FailoverSim, EveryStrategyNameParsesBackToItsStrategy) {
  using mapping::RemapStrategy;
  for (const RemapStrategy strategy :
       {RemapStrategy::kGreedyMem, RemapStrategy::kGreedyCpu,
        RemapStrategy::kMilp}) {
    EXPECT_EQ(mapping::parse_remap_strategy(mapping::to_string(strategy)),
              strategy);
  }
  EXPECT_STREQ(mapping::to_string(RemapStrategy::kGreedyMem), "greedy-mem");
  EXPECT_STREQ(mapping::to_string(RemapStrategy::kGreedyCpu), "greedy-cpu");
  EXPECT_STREQ(mapping::to_string(RemapStrategy::kMilp), "milp");
}

TEST(FailoverSim, LosingTheOnlyPpeIsUnsurvivable) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());
  EXPECT_THROW(mapping::remap_after_failure(ss, ex.mapping, 0), Error);
}

TEST(FailoverSim, RemapKeepsSurvivorsInPlace) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());
  const Mapping post = mapping::remap_after_failure(
      ss, ex.mapping, 3, mapping::RemapStrategy::kGreedyMem);
  for (TaskId t = 0; t < ex.graph.task_count(); ++t) {
    if (ex.mapping.pe_of(t) != 3u) {
      EXPECT_EQ(post.pe_of(t), ex.mapping.pe_of(t)) << "task " << t;
    } else {
      EXPECT_NE(post.pe_of(t), 3u) << "task " << t;
    }
  }
}

}  // namespace
}  // namespace cellstream::fault
