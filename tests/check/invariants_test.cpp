// Tests of the invariant-checking oracle (src/check/invariants.hpp).
//
// Every invariant is exercised twice: against a hand-built trace seeded
// with exactly one violation (the checker must flag it — no vacuous
// passes), and against a clean run of a real simulated pipeline (the
// checker must stay silent).

#include <gtest/gtest.h>

#include <limits>

#include "check/invariants.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "sim/simulator.hpp"

namespace cellstream::check {
namespace {

using obs::TraceEvent;

TraceEvent compute_event(TaskId task, PeId pe, std::int64_t instance,
                         double start, double end) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kCompute;
  e.pe = static_cast<std::uint16_t>(pe);
  e.src_pe = e.pe;
  e.start = start;
  e.end = end;
  e.instance = instance;
  e.task = static_cast<std::int32_t>(task);
  return e;
}

TraceEvent edge_event(EdgeId edge, PeId issuer, PeId src_pe,
                      std::int64_t instance, double start, double end) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kTransfer;
  e.payload = TraceEvent::Payload::kEdge;
  e.pe = static_cast<std::uint16_t>(issuer);
  e.src_pe = static_cast<std::uint16_t>(src_pe);
  e.start = start;
  e.end = end;
  e.instance = instance;
  e.edge = static_cast<std::int32_t>(edge);
  return e;
}

TraceEvent mem_read_event(PeId pe, double start, double end) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kTransfer;
  e.payload = TraceEvent::Payload::kMemRead;
  e.pe = static_cast<std::uint16_t>(pe);
  e.src_pe = e.pe;
  e.start = start;
  e.end = end;
  return e;
}

bool has_invariant(const std::vector<Violation>& violations,
                   const std::string& id) {
  for (const Violation& v : violations) {
    if (v.invariant == id) return true;
  }
  return false;
}

/// Two-task chain A -> B used by the trace-replay tests.  buffer_depth of
/// the edge is firstPeriod(B) - firstPeriod(A) = 2 instances.
TaskGraph chain_graph(double data_bytes = 1024.0) {
  TaskGraph graph("chain");
  graph.add_task({"A", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  graph.add_task({"B", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  graph.add_edge(0, 1, data_bytes);
  return graph;
}

// -- I1: throughput bound --------------------------------------------------

TEST(ThroughputBound, FlagsThroughputAboveTheAnalyticBound) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 0});
  sim::SimResult result;
  result.steady_throughput = 2.0 * analysis.throughput(mapping);
  // One instance in 2T: observed throughput 0.5 x the bound.
  result.counters.instance_completion.assign(1, 0.0);
  result.counters.elapsed_seconds = 2.0 / analysis.throughput(mapping);
  const auto violations = check_throughput_bound(analysis, mapping, result);
  EXPECT_TRUE(has_invariant(violations, "throughput-bound"));
}

TEST(ThroughputBound, AcceptsThroughputWithinTolerance) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 0});
  sim::SimResult result;
  result.steady_throughput = 1.01 * analysis.throughput(mapping);
  // One instance in T: observed throughput at the bound.
  result.counters.instance_completion.assign(1, 0.0);
  result.counters.elapsed_seconds = 1.0 / analysis.throughput(mapping);
  EXPECT_TRUE(check_throughput_bound(analysis, mapping, result).empty());
}

TEST(ThroughputBound, FlagsAFaultedRunWhoseWholeRunExceedsTheBound) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 0});
  sim::SimResult result;
  result.faults.slowdown_seconds = 1e-3;
  result.steady_throughput = 0.5 * analysis.throughput(mapping);
  // Two instances in T: whole-run throughput twice the bound.
  result.counters.instance_completion.assign(2, 0.0);
  result.counters.elapsed_seconds = 1.0 / analysis.throughput(mapping);
  const auto violations = check_throughput_bound(analysis, mapping, result);
  EXPECT_TRUE(has_invariant(violations, "throughput-bound"));
}

TEST(ThroughputBound, ComparesTheMiddleHalfOnlyWithoutTransientFaults) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 0});
  sim::SimResult result;
  result.steady_throughput = 2.0 * analysis.throughput(mapping);
  // One instance in T: whole-run throughput at the bound.
  result.counters.instance_completion.assign(1, 0.0);
  result.counters.elapsed_seconds = 1.0 / analysis.throughput(mapping);
  EXPECT_TRUE(has_invariant(check_throughput_bound(analysis, mapping, result),
                            "throughput-bound"));
  // A catch-up after a retry, a hang or a slowdown may fill the middle half.
  result.faults.dma_retries = 1;
  EXPECT_TRUE(check_throughput_bound(analysis, mapping, result).empty());
  result.faults.dma_retries = 0;
  result.faults.hangs = 1;
  EXPECT_TRUE(check_throughput_bound(analysis, mapping, result).empty());
  result.faults.hangs = 0;
  result.faults.slowdown_seconds = 1e-3;
  EXPECT_TRUE(check_throughput_bound(analysis, mapping, result).empty());
}

// -- I2: completion order --------------------------------------------------

TEST(CompletionOrder, FlagsNonIncreasingCompletions) {
  sim::SimResult result;
  result.completion_times = {1.0, 2.0, 1.5, 3.0};
  result.makespan = 3.0;
  EXPECT_TRUE(has_invariant(check_completion_order(result),
                            "completion-order"));
}

TEST(CompletionOrder, FlagsMakespanMismatch) {
  sim::SimResult result;
  result.completion_times = {1.0, 2.0};
  result.makespan = 5.0;
  EXPECT_TRUE(has_invariant(check_completion_order(result),
                            "completion-order"));
}

TEST(CompletionOrder, AcceptsStrictlyIncreasingCompletions) {
  sim::SimResult result;
  result.completion_times = {1.0, 2.0, 3.0};
  result.makespan = 3.0;
  EXPECT_TRUE(check_completion_order(result).empty());
}

// -- I3: local store -------------------------------------------------------

TEST(LocalStore, FlagsBuffersOverTheBudget) {
  // buff = 2 x 100 kB per endpoint; both endpoints on one SPE charge the
  // store twice (paper Section 4.2) = 400 kB >> 192 kB budget.
  const SteadyStateAnalysis analysis(chain_graph(100.0 * 1024.0),
                                     platforms::qs22_single_cell());
  const Mapping on_spe(std::vector<PeId>{1, 1});
  EXPECT_TRUE(has_invariant(check_local_store(analysis, on_spe),
                            "local-store"));
}

TEST(LocalStore, AcceptsPpeMappingsAndFittingBuffers) {
  const SteadyStateAnalysis big(chain_graph(100.0 * 1024.0),
                                platforms::qs22_single_cell());
  EXPECT_TRUE(check_local_store(big, Mapping(std::vector<PeId>{0, 0})).empty());
  const SteadyStateAnalysis small(chain_graph(1024.0),
                                  platforms::qs22_single_cell());
  EXPECT_TRUE(
      check_local_store(small, Mapping(std::vector<PeId>{1, 1})).empty());
}

// -- I4: DMA queue limits --------------------------------------------------

TEST(DmaQueueLimits, FlagsSeventeenConcurrentSpeIssuedDmas) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 17; ++i) {
    trace.push_back(mem_read_event(/*pe=*/1, 0.0, 1.0));
  }
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "dma-queue"));
}

TEST(DmaQueueLimits, AcceptsExactlySixteenConcurrentSpeIssuedDmas) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 16; ++i) {
    trace.push_back(mem_read_event(/*pe=*/1, 0.0, 1.0));
  }
  EXPECT_TRUE(check_trace(analysis, mapping, trace).empty());
}

TEST(DmaQueueLimits, FlagsNineConcurrentPpeIssuedFetchesFromOneSpe) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  for (std::int64_t i = 0; i < 9; ++i) {
    trace.push_back(edge_event(0, /*issuer=*/0, /*src_pe=*/1, i, 0.0, 1.0));
  }
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "dma-queue"));
}

TEST(DmaQueueLimits, ASlotFreedAtTmayBeReusedAtT) {
  // 16 transfers end exactly when a 17th starts: completions are applied
  // first at equal timestamps, so the peak stays at the hardware limit.
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 16; ++i) {
    trace.push_back(mem_read_event(/*pe=*/1, 0.0, 1.0));
  }
  trace.push_back(mem_read_event(/*pe=*/1, 1.0, 2.0));
  EXPECT_TRUE(check_trace(analysis, mapping, trace).empty());
}

// -- I5: buffer occupancy --------------------------------------------------

TEST(BufferOccupancy, FlagsProducerSideOverflow) {
  // depth = 2: the producer running three instances ahead of the consumer
  // overfills D_{A,B}'s buffer.
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});  // remote edge
  ASSERT_EQ(analysis.buffer_depth(0), 2);
  std::vector<TraceEvent> trace;
  for (std::int64_t i = 0; i < 3; ++i) {
    const double t = static_cast<double>(i);
    trace.push_back(compute_event(0, 1, i, t, t + 0.5));
  }
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "buffer-occupancy"));
}

TEST(BufferOccupancy, FlagsFetchWithoutProduction) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  trace.push_back(edge_event(0, 2, 1, 0, 0.0, 0.5));  // fetched > produced
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "buffer-occupancy"));
}

TEST(BufferOccupancy, AcceptsAProducerConsumerPipelineWithinDepth) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  for (std::int64_t i = 0; i < 5; ++i) {
    const double t = static_cast<double>(i);
    trace.push_back(compute_event(0, 1, i, t, t + 0.2));
    trace.push_back(edge_event(0, 2, 1, i, t + 0.3, t + 0.4));
    trace.push_back(compute_event(1, 2, i, t + 0.5, t + 0.7));
  }
  EXPECT_TRUE(check_trace(analysis, mapping, trace).empty());
}

TEST(BufferOccupancy, FlagsNonSequentialInstanceNumbering) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  trace.push_back(compute_event(0, 1, 0, 0.0, 0.2));
  trace.push_back(compute_event(0, 1, 2, 1.0, 1.2));  // skips instance 1
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "trace-consistency"));
}

// -- I6: causality ---------------------------------------------------------

TEST(Causality, FlagsFetchStartingBeforeProduction) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  trace.push_back(compute_event(0, 1, 0, 0.0, 2.0));
  trace.push_back(edge_event(0, 2, 1, 0, 1.0, 3.0));  // starts mid-produce
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "causality"));
}

TEST(Causality, FlagsComputeStartingBeforeItsRemoteInputArrives) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  trace.push_back(compute_event(0, 1, 0, 0.0, 1.0));
  trace.push_back(edge_event(0, 2, 1, 0, 1.0, 2.0));
  trace.push_back(compute_event(1, 2, 0, 1.5, 2.5));  // before fetch ends
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "causality"));
}

TEST(Causality, FlagsComputeStartingBeforeItsLocalInputIsProduced) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 1});  // co-located: no fetch
  std::vector<TraceEvent> trace;
  trace.push_back(compute_event(0, 1, 0, 0.0, 1.0));
  trace.push_back(compute_event(1, 1, 0, 0.5, 1.5));  // before A finishes
  const auto violations = check_trace(analysis, mapping, trace);
  EXPECT_TRUE(has_invariant(violations, "causality"));
}

TEST(Causality, FlagsPeekConsumersRunningAheadOfTheLookahead) {
  // B peeks one instance ahead: instance 0 of B needs instances 0 and 1 of
  // A delivered first.
  TaskGraph graph("peek");
  graph.add_task({"A", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  graph.add_task({"B", 1e-3, 1e-3, 1, 0.0, 0.0, false});
  graph.add_edge(0, 1, 1024.0);
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 1});
  std::vector<TraceEvent> trace;
  trace.push_back(compute_event(0, 1, 0, 0.0, 1.0));
  trace.push_back(compute_event(0, 1, 1, 3.0, 4.0));
  trace.push_back(compute_event(1, 1, 0, 1.5, 2.0));  // A#1 ends at 4.0
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "causality"));
}

TEST(Causality, FlagsOverlappingComputeWindowsOnOnePe) {
  TaskGraph graph("parallel");
  graph.add_task({"A", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  graph.add_task({"B", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 1});
  std::vector<TraceEvent> trace;
  trace.push_back(compute_event(0, 1, 0, 0.0, 1.0));
  trace.push_back(compute_event(1, 1, 0, 0.5, 1.5));  // double-booked SPE0
  EXPECT_TRUE(has_invariant(check_trace(analysis, mapping, trace),
                            "causality"));
}

TEST(Causality, AcceptsAWellOrderedPipeline) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  std::vector<TraceEvent> trace;
  for (std::int64_t i = 0; i < 4; ++i) {
    const double t = static_cast<double>(i);
    trace.push_back(compute_event(0, 1, i, t, t + 0.2));
    trace.push_back(edge_event(0, 2, 1, i, t + 0.2, t + 0.4));
    trace.push_back(compute_event(1, 2, i, t + 0.4, t + 0.6));
  }
  EXPECT_TRUE(check_trace(analysis, mapping, trace).empty());
}

// -- One replay: each defect reported once, a gap never replayed ----------

std::size_t count_invariant(const std::vector<Violation>& violations,
                            const std::string& id) {
  std::size_t n = 0;
  for (const Violation& v : violations) n += v.invariant == id ? 1 : 0;
  return n;
}

/// A clean simulated run of the chain A -> B on SPE0 -> SPE1 whose trace is
/// replaced by `trace`: I1-I3, I7 and I8 pass, so every violation
/// check_invariants reports comes from the trace replay.
InvariantReport check_with_trace(std::vector<TraceEvent> trace) {
  const SteadyStateAnalysis analysis(chain_graph(),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 2});
  sim::SimOptions options;
  options.instances = 50;
  sim::SimResult result = sim::simulate(analysis, mapping, options);
  result.trace = std::move(trace);
  return check_invariants(analysis, mapping, result);
}

TEST(CheckTrace, AMissingInstanceIsReportedOnceAndNeverReplayed) {
  // A's instances 0 and 2 only: the gap is one defect.  Replaying it as a
  // zero window would overfill D_{A,B} (three instances over depth 2) and
  // double-book SPE0 at t = 0.
  std::vector<TraceEvent> trace;
  trace.push_back(compute_event(0, 1, 0, 0.0, 0.2));
  trace.push_back(compute_event(0, 1, 2, 1.0, 1.2));
  const InvariantReport report = check_with_trace(std::move(trace));
  EXPECT_EQ(count_invariant(report.violations, "trace-consistency"), 1u)
      << report.to_string();
  EXPECT_EQ(count_invariant(report.violations, "buffer-occupancy"), 0u)
      << report.to_string();
  EXPECT_EQ(count_invariant(report.violations, "causality"), 0u)
      << report.to_string();
  EXPECT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.checks_run, 8u);
}

TEST(CheckTrace, AnOutOfRangeInstanceIsReportedNotAllocated) {
  // A sequence is sized by its events, not by its instance numbers: one
  // compute and one fetch numbered 2^40 or INT64_MAX leave instance 0 of
  // each sequence missing, which is a defect, not a terabyte index or a
  // length error.
  for (const std::int64_t instance :
       {std::int64_t{1} << 40, std::numeric_limits<std::int64_t>::max()}) {
    std::vector<TraceEvent> trace;
    trace.push_back(compute_event(0, 1, instance, 0.0, 0.2));
    trace.push_back(edge_event(0, 2, 1, instance, 0.2, 0.4));
    const InvariantReport report = check_with_trace(std::move(trace));
    ASSERT_EQ(report.violations.size(), 2u) << report.to_string();
    for (const Violation& v : report.violations) {
      EXPECT_EQ(v.invariant, "trace-consistency");
      EXPECT_NE(v.detail.find("instance 0 is missing"), std::string::npos)
          << v.detail;
    }
  }
}

TEST(CheckTrace, ADuplicatedInstanceIsReportedOnce) {
  std::vector<TraceEvent> trace;
  for (std::int64_t i = 0; i < 4; ++i) {
    const double t = static_cast<double>(i);
    trace.push_back(compute_event(0, 1, i, t, t + 0.2));
    trace.push_back(edge_event(0, 2, 1, i, t + 0.2, t + 0.4));
    trace.push_back(compute_event(1, 2, i, t + 0.4, t + 0.6));
  }
  trace.push_back(trace[3]);  // A's instance 1 recorded twice
  const InvariantReport report = check_with_trace(std::move(trace));
  EXPECT_EQ(count_invariant(report.violations, "trace-consistency"), 1u)
      << report.to_string();
  EXPECT_EQ(report.violations.size(), 1u) << report.to_string();
}

TEST(CheckTrace, AnUnorderedSequenceIsSortedOnceForAllItsEdges) {
  // The chain A -> B -> C on SPE0, whose B completes instance 1 before
  // instance 0.  B's computes feed I5 on both edges (consumer of A -> B,
  // producer of B -> C), yet their end order is built once.  The run is
  // clean: B's inputs and C's were all ready in time.
  TaskGraph graph("chain3");
  for (const char* name : {"A", "B", "C"}) {
    graph.add_task({name, 1e-3, 1e-3, 0, 0.0, 0.0, false});
  }
  graph.add_edge(0, 1, 1024.0);
  graph.add_edge(1, 2, 1024.0);
  const SteadyStateAnalysis analysis(std::move(graph),
                                     platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{1, 1, 1});
  sim::SimOptions options;
  options.instances = 50;
  sim::SimResult result = sim::simulate(analysis, mapping, options);
  result.trace = {compute_event(0, 1, 0, 0.0, 0.1),
                  compute_event(0, 1, 1, 0.1, 0.2),
                  compute_event(1, 1, 1, 0.2, 0.3),
                  compute_event(1, 1, 0, 0.3, 0.4),
                  compute_event(2, 1, 0, 0.4, 0.5),
                  compute_event(2, 1, 1, 0.5, 0.6)};
  const InvariantReport report = check_invariants(analysis, mapping, result);
  EXPECT_EQ(report.replay_sorts, 1u);
  EXPECT_TRUE(report.violations.empty()) << report.to_string();
}

// -- The aggregate checker on a real simulated run -------------------------

TEST(CheckInvariants, CleanPipelineRunPassesEveryInvariant) {
  gen::DagGenParams params;
  params.task_count = 12;
  params.seed = 7;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 1.5);
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  Mapping mapping = mapping::greedy_cpu(analysis);
  if (!analysis.feasible(mapping)) mapping = mapping::ppe_only(analysis);
  sim::SimOptions options;
  options.instances = 200;
  options.record_trace = true;
  const sim::SimResult result = sim::simulate(analysis, mapping, options);

  const InvariantReport report = check_invariants(analysis, mapping, result);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.trace_checked);
  EXPECT_EQ(report.checks_run, 8u);  // I1-I8 (I9 needs a failover outcome)
  EXPECT_GT(report.trace_events_seen, 0u);
}

TEST(CheckInvariants, TraceChecksAreSkippedWithoutATrace) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 0});
  sim::SimOptions options;
  options.instances = 50;
  const sim::SimResult result = sim::simulate(analysis, mapping, options);
  const InvariantReport report = check_invariants(analysis, mapping, result);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_FALSE(report.trace_checked);
  EXPECT_EQ(report.checks_run, 5u);  // I1-I3, I7, I8; trace families skipped
}

// -- I7: predicted-vs-observed occupation ----------------------------------

TEST(Occupation, AcceptsHonestSimulatedCounters) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 1});
  sim::SimOptions options;
  options.instances = 100;
  const sim::SimResult result = sim::simulate(analysis, mapping, options);
  EXPECT_TRUE(
      check_occupation(analysis, mapping, result.counters).empty());
}

TEST(Occupation, FlagsTrafficTheModelDoesNotAccountFor) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 1});
  sim::SimOptions options;
  options.instances = 100;
  sim::SimResult result = sim::simulate(analysis, mapping, options);
  // A misattribution bug: bytes charged to an interface the model never
  // routes this edge through.
  result.counters.pe[0].bytes_in += 1e9;
  const std::vector<Violation> found =
      check_occupation(analysis, mapping, result.counters);
  ASSERT_FALSE(found.empty());
  EXPECT_TRUE(has_invariant(found, "occupation"));
  // The aggregated oracle reports it too.
  const InvariantReport report = check_invariants(analysis, mapping, result);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report.violations, "occupation"));
}

TEST(Occupation, ToleranceIsOneSidedAndConfigurable) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 1});
  sim::SimOptions options;
  options.instances = 100;
  sim::SimResult result = sim::simulate(analysis, mapping, options);
  // Under-use never flags (early finish / better overlap is fine).
  result.counters.pe[1].bytes_in *= 0.5;
  EXPECT_TRUE(
      check_occupation(analysis, mapping, result.counters).empty());
  // A 4 % excess passes the default 5 % tolerance but fails a 1 % one.
  sim::SimResult excess = sim::simulate(analysis, mapping, options);
  excess.counters.pe[1].bytes_in *= 1.04;
  EXPECT_TRUE(
      check_occupation(analysis, mapping, excess.counters).empty());
  InvariantOptions tight;
  tight.occupation_tolerance = 0.01;
  EXPECT_FALSE(
      check_occupation(analysis, mapping, excess.counters, tight).empty());
}

TEST(Occupation, SkipsWallClockAndEmptyRuns) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 1});
  sim::SimOptions options;
  options.instances = 20;
  sim::SimResult result = sim::simulate(analysis, mapping, options);
  result.counters.pe[0].bytes_in += 1e12;  // would flag in the sim domain
  result.counters.domain = obs::TimeDomain::kWall;
  EXPECT_TRUE(
      check_occupation(analysis, mapping, result.counters).empty());

  obs::Counters empty;
  empty.pe.resize(analysis.platform().pe_count());
  EXPECT_TRUE(check_occupation(analysis, mapping, empty).empty());
}

// -- I8: stream integrity --------------------------------------------------

TEST(StreamIntegrity, FlagsLostAndDuplicatedInstances) {
  const TaskGraph graph = chain_graph();

  StreamAccounting lost;
  lost.instances_completed = 9;  // one short of the stream
  lost.edge_produced = {10};
  lost.edge_delivered = {10};
  EXPECT_TRUE(has_invariant(check_stream_integrity(graph, lost, 10),
                            "stream-integrity"));

  StreamAccounting duplicated;
  duplicated.instances_completed = 11;  // one extra
  duplicated.edge_produced = {10};
  duplicated.edge_delivered = {10};
  EXPECT_TRUE(has_invariant(check_stream_integrity(graph, duplicated, 10),
                            "stream-integrity"));
}

TEST(StreamIntegrity, FlagsEdgesNotDeliveredExactlyOncePerInstance) {
  const TaskGraph graph = chain_graph();

  StreamAccounting undelivered;
  undelivered.instances_completed = 10;
  undelivered.edge_produced = {10};
  undelivered.edge_delivered = {9};  // a packet vanished in flight
  EXPECT_TRUE(has_invariant(check_stream_integrity(graph, undelivered, 10),
                            "stream-integrity"));

  StreamAccounting overproduced;
  overproduced.instances_completed = 10;
  overproduced.edge_produced = {11};  // a packet was pushed twice
  overproduced.edge_delivered = {10};
  EXPECT_TRUE(has_invariant(check_stream_integrity(graph, overproduced, 10),
                            "stream-integrity"));

  StreamAccounting clean;
  clean.instances_completed = 10;
  clean.edge_produced = {10};
  clean.edge_delivered = {10};
  EXPECT_TRUE(check_stream_integrity(graph, clean, 10).empty());
}

TEST(StreamIntegrity, AcceptsARealSimulatedRunEndToEnd) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis ss(graph, platforms::qs22_single_cell());
  Mapping mapping(2, 0);
  mapping.assign(0, 1);
  mapping.assign(1, 2);
  sim::SimOptions options;
  options.instances = 50;
  const sim::SimResult run = sim::simulate(ss, mapping, options);
  EXPECT_TRUE(
      check_stream_integrity(graph, accounting_of(run), 50).empty());
}

// -- I9: degraded-mapping conformance --------------------------------------

TEST(DegradedMapping, FlagsTasksLeftOnAFailedPe) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis ss(graph, platforms::qs22_single_cell());
  Mapping mapping(2, 0);
  mapping.assign(0, 1);  // task 0 still sits on the "failed" PE 1
  mapping.assign(1, 2);
  sim::SimOptions options;
  options.instances = 30;
  const sim::SimResult run = sim::simulate(ss, mapping, options);

  EXPECT_TRUE(has_invariant(
      check_degraded_mapping(ss, mapping, {1}, run.counters),
      "degraded-mapping"));
}

TEST(DegradedMapping, AcceptsAMappingThatEvacuatedTheFailedPe) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis ss(graph, platforms::qs22_single_cell());
  Mapping post(2, 0);
  post.assign(0, 2);  // both tasks off PE 1
  post.assign(1, 3);
  sim::SimOptions options;
  options.instances = 30;
  const sim::SimResult run = sim::simulate(ss, post, options);

  EXPECT_TRUE(check_degraded_mapping(ss, post, {1}, run.counters).empty());
}

TEST(Occupation, FlagsQueuePeaksAboveHardwareDepth) {
  const TaskGraph graph = chain_graph();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 1});
  sim::SimOptions options;
  options.instances = 20;
  sim::SimResult result = sim::simulate(analysis, mapping, options);
  result.counters.pe[1].mfc_queue_peak =
      analysis.platform().spe_dma_slots + 1;
  const std::vector<Violation> found =
      check_occupation(analysis, mapping, result.counters);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(has_invariant(found, "occupation"));
}

}  // namespace
}  // namespace cellstream::check
