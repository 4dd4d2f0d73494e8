// Differential rule D6: the simulator's steady-state fast-forward must be
// a pure optimization — bit-identical final stats, and on a traced run a
// bit-identical trace, against the full run — across the paper's worked
// example, a sweep of fuzzed (graph, mapping) pairs, the paper graphs and
// the failover outcomes of plans whose only fault is a fail-stop, and it
// must stay out of the way when a fault plan makes the run aperiodic
// (docs/PERFORMANCE.md).  Also pinned here: the instance at
// which each of those runs detects its cycle, and that a result's steady
// throughput is the obs::Counters rule, fast-forwarded or not.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "check/differential.hpp"
#include "fault/failover.hpp"
#include "fault/fault_plan.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "sim/simulator.hpp"

namespace cellstream::check {
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

/// Two zero-work tasks joined by a 0-byte edge: with both on PE 0 and
/// zero overheads, every event of the stream happens at tick 0.
TaskGraph zero_work_pair() {
  TaskGraph graph("zero-work");
  graph.add_task({"A", 0.0, 0.0, 0, 0.0, 0.0, false});
  graph.add_task({"B", 0.0, 0.0, 0, 0.0, 0.0, false});
  graph.add_edge(0, 1, 0.0);
  return graph;
}

/// Two 1 µs tasks on two SPEs joined by a 64 kB edge: the fetch takes
/// longer than either task, so one is in flight when an instance completes
/// and the fast-forward jumps across it.
TaskGraph transfer_bound_pipe() {
  TaskGraph graph("transfer-bound-pipe");
  graph.add_task({"A", 1.0e-6, 1.0e-6, 0, 0.0, 0.0, false});
  graph.add_task({"B", 1.0e-6, 1.0e-6, 0, 0.0, 0.0, false});
  graph.add_edge(0, 1, 65536.0);
  return graph;
}

/// Fuzzed pair i of the sweeps below: task counts, CCR levels and both
/// greedy strategies (falling back to ppe-only when infeasible).
const double kFuzzCcrs[] = {0.775, 1.5, 2.3, 4.6};
const char* const kFuzzStrategies[] = {"greedy-cpu", "greedy-mem", "ppe-only"};

SteadyStateAnalysis fuzzed_analysis(int i) {
  gen::DagGenParams params;
  params.task_count = 6 + (static_cast<std::size_t>(i) * 7) % 18;
  params.seed = static_cast<std::uint64_t>(i) * 977 + 11;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, kFuzzCcrs[i % 4]);
  return SteadyStateAnalysis(std::move(graph), platforms::qs22_single_cell());
}

Mapping fuzzed_mapping(const SteadyStateAnalysis& analysis, int i) {
  Mapping mapping = mapping::run_heuristic(kFuzzStrategies[i % 3], analysis);
  if (!analysis.feasible(mapping)) mapping = mapping::ppe_only(analysis);
  return mapping;
}

sim::SimOptions zero_overhead_options(std::size_t instances) {
  sim::SimOptions options;
  options.instances = instances;
  options.dispatch_overhead = 0.0;
  options.dma_issue_overhead = 0.0;
  return options;
}

TEST(FastForwardEquivalence, PaperWorkedExampleEngagesAndIsBitIdentical) {
  const TaskGraph graph = worked_example();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping = mapping::greedy_mem(analysis);
  sim::SimOptions options;
  options.instances = 2000;
  bool engaged = false;
  const std::vector<Violation> violations =
      check_fast_forward_equivalence(analysis, mapping, options, &engaged);
  for (const Violation& v : violations) ADD_FAILURE() << v.detail;
  // The fully pipelined worked example is periodic from early on; a 2000
  // instance stream leaves plenty of room for a jump.
  EXPECT_TRUE(engaged);
}

TEST(FastForwardEquivalence, ReportsCycleDiagnosticsWhenEngaged) {
  const TaskGraph graph = worked_example();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping = mapping::greedy_mem(analysis);
  sim::SimOptions options;
  options.instances = 2000;
  const sim::SimResult r = sim::simulate(analysis, mapping, options);
  ASSERT_TRUE(r.fast_forward.enabled);
  ASSERT_TRUE(r.fast_forward.engaged);
  EXPECT_GT(r.fast_forward.cycle_instances, 0);
  EXPECT_GT(r.fast_forward.cycle_seconds, 0.0);
  EXPECT_GT(r.fast_forward.skipped_cycles, 0);
  EXPECT_GT(r.fast_forward.skipped_instances, 0);
  EXPECT_LT(r.fast_forward.skipped_instances,
            static_cast<std::int64_t>(options.instances));
  // Observed period never beats the analytic steady-state bound; with the
  // default overheads it sits a few percent above it (the paper's gap).
  EXPECT_DOUBLE_EQ(r.fast_forward.model_period,
                   analysis.period(mapping));
  EXPECT_GE(r.fast_forward.period_ratio, 0.999);
  EXPECT_LT(r.fast_forward.period_ratio, 1.30);
}

/// D6 on the 50 fuzzed pairs, each checked bitwise against its full run;
/// returns how many fast-forwarded runs engaged.
int fuzzed_pairs_are_bit_identical(bool record_trace) {
  int engaged_count = 0;
  for (int i = 0; i < 50; ++i) {
    const SteadyStateAnalysis analysis = fuzzed_analysis(i);
    sim::SimOptions options;
    options.instances = 700;
    options.record_trace = record_trace;
    bool engaged = false;
    const std::vector<Violation> violations = check_fast_forward_equivalence(
        analysis, fuzzed_mapping(analysis, i), options, &engaged);
    for (const Violation& v : violations) {
      ADD_FAILURE() << "pair " << i << " (" << kFuzzStrategies[i % 3]
                    << ", ccr " << kFuzzCcrs[i % 4] << "): " << v.detail;
    }
    engaged_count += engaged ? 1 : 0;
  }
  return engaged_count;
}

TEST(FastForwardEquivalence, FiftyFuzzedPairsAreBitIdentical) {
  // Bit-identity must hold regardless, but the optimization would be
  // pointless if it never fired: most steady pipelines must engage.
  EXPECT_GE(fuzzed_pairs_are_bit_identical(false), 25)
      << "fast-forward engaged on too few pairs";
}

TEST(FastForwardEquivalence, ZeroDurationStreamIsBitIdentical) {
  // The whole stream takes zero simulated time, so the detected cycle is
  // zero ticks long; it translates like any other cycle.
  const TaskGraph graph = zero_work_pair();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping(std::vector<PeId>{0, 0});
  const sim::SimOptions options = zero_overhead_options(100);
  const sim::SimResult r = sim::simulate(analysis, mapping, options);
  EXPECT_EQ(r.makespan, 0.0);
  EXPECT_EQ(r.completion_times.size(), options.instances);
  EXPECT_TRUE(r.fast_forward.engaged);
  EXPECT_EQ(r.fast_forward.cycle_seconds, 0.0);
  const std::vector<Violation> violations =
      check_fast_forward_equivalence(analysis, mapping, options, nullptr);
  for (const Violation& v : violations) ADD_FAILURE() << v.detail;
}

// Where the cycle is detected, pinned: D6 alone would still pass if a
// change to the state signature found the cycle later (or never).  Each
// row is {cycle_instances, cycle length in ticks, skipped_instances},
// recorded from an earlier implementation of the state list; a refactor
// of the signature must not move them.
struct CyclePin {
  std::int64_t instances;
  std::int64_t ticks;
  std::int64_t skipped;
};

void expect_cycle(const sim::FastForwardInfo& ff, const CyclePin& pin,
                  const std::string& what) {
  EXPECT_TRUE(ff.engaged) << what;
  EXPECT_EQ(ff.cycle_instances, pin.instances) << what;
  EXPECT_EQ(ff.cycle_seconds, static_cast<double>(pin.ticks) * 1e-9) << what;
  EXPECT_EQ(ff.skipped_instances, pin.skipped) << what;
}

TEST(FastForwardCycle, WorkedExampleCycleIsDetectedWhereItWas) {
  const TaskGraph graph = worked_example();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping = mapping::greedy_mem(analysis);
  sim::SimOptions options;
  options.instances = 2000;
  expect_cycle(sim::simulate(analysis, mapping, options).fast_forward,
               {1, 1001000, 1989}, "worked example");
}

TEST(FastForwardCycle, FiftyFuzzedPairCyclesAreDetectedWhereTheyWere) {
  // The pairs of FiftyFuzzedPairsAreBitIdentical, in the same order.
  const CyclePin pins[50] = {
      {1, 2502768, 670},  {1, 2294402, 669},  {1, 21039434, 682},
      {1, 7537194, 681},  {1, 2762097, 675},  {1, 22440722, 681},
      {1, 10359253, 682}, {1, 19931012, 678}, {1, 8246950, 683},
      {1, 7354211, 668},  {1, 9069239, 673},  {1, 16642044, 685},
      {1, 4085996, 455},  {1, 2039218, 660},  {1, 16178483, 683},
      {1, 16105123, 673}, {1, 2027162, 664},  {1, 18859685, 679},
      {1, 5433775, 679},  {1, 15435030, 682}, {1, 22697559, 680},
      {1, 3471095, 673},  {1, 15775883, 679}, {1, 25570841, 681},
      {1, 3763618, 670},  {1, 8674336, 666},  {1, 9995708, 684},
      {1, 18230138, 681}, {6, 22171050, 630}, {1, 13583706, 683},
      {1, 12927328, 679}, {1, 8395747, 681},  {1, 15977524, 684},
      {1, 11201618, 668}, {1, 2167142, 662},  {1, 15004209, 684},
      {1, 1681093, 593},  {1, 8086079, 673},  {1, 24765138, 683},
      {1, 8543827, 683},  {1, 3207401, 664},  {1, 29472447, 682},
      {1, 5443080, 680},  {1, 17073248, 677}, {1, 8627778, 685},
      {1, 9312588, 670},  {1, 13605247, 677}, {1, 14475153, 683},
      {1, 3828824, 663},  {1, 1368073, 667}};
  for (int i = 0; i < 50; ++i) {
    const SteadyStateAnalysis analysis = fuzzed_analysis(i);
    sim::SimOptions options;
    options.instances = 700;
    expect_cycle(
        sim::simulate(analysis, fuzzed_mapping(analysis, i), options)
            .fast_forward,
        pins[i], "pair " + std::to_string(i));
  }
}

// SimResult::steady_throughput is a copy of the counters' rule, never a
// second implementation of it: bitwise equal on an ordinary run, on a run
// that takes no time at all, and on a failover's stitched stream.
TEST(ThroughputRecords, SteadyThroughputIsTheCountersRule) {
  const TaskGraph graph = worked_example();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping = mapping::greedy_mem(analysis);
  sim::SimOptions options;
  options.instances = 500;
  const sim::SimResult ordinary = sim::simulate(analysis, mapping, options);
  EXPECT_GT(ordinary.steady_throughput, 0.0);
  EXPECT_EQ(ordinary.steady_throughput,
            ordinary.counters.steady_throughput());

  const TaskGraph zero = zero_work_pair();
  const SteadyStateAnalysis zero_analysis(zero,
                                          platforms::qs22_single_cell());
  const sim::SimResult instant =
      sim::simulate(zero_analysis, Mapping(std::vector<PeId>{0, 0}),
                    zero_overhead_options(100));
  EXPECT_EQ(instant.steady_throughput, 0.0);
  EXPECT_EQ(instant.steady_throughput, instant.counters.steady_throughput());

  fault::FaultPlan plan;
  plan.pe_failure = fault::PeFailure{1, 200};  // SPE0
  fault::FailoverOptions failover;
  failover.sim = options;
  const fault::FailoverOutcome outcome =
      fault::run_with_failover(analysis, mapping, plan, failover);
  ASSERT_TRUE(outcome.failover_performed);
  EXPECT_EQ(outcome.result.steady_throughput,
            outcome.result.counters.steady_throughput());
  EXPECT_EQ(outcome.result.dma_transfers,
            outcome.result.counters.total_transfers());
}

TEST(FastForwardEquivalence, MidStreamFaultPlanDisablesFastForward) {
  const TaskGraph graph = worked_example();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping = mapping::greedy_mem(analysis);

  fault::FaultPlan plan;
  fault::Slowdown slowdown;
  slowdown.pe = mapping.pe_of(0);
  slowdown.from_instance = 900;
  slowdown.to_instance = 950;
  slowdown.factor = 3.0;
  plan.slowdowns.push_back(slowdown);

  sim::SimOptions options;
  options.instances = 2000;
  options.fast_forward = true;  // explicitly requested, still refused
  options.fault_plan = &plan;
  const sim::SimResult r = sim::simulate(analysis, mapping, options);
  EXPECT_FALSE(r.fast_forward.enabled);
  EXPECT_FALSE(r.fast_forward.engaged);
  EXPECT_EQ(r.fast_forward.skipped_instances, 0);
  // The injected mid-stream stall actually happened — every event was
  // simulated, nothing was skipped over the fault window.
  EXPECT_GT(r.faults.slowdown_seconds, 0.0);

  // The D6 checker refuses a vacuous comparison outright.
  EXPECT_THROW(
      check_fast_forward_equivalence(analysis, mapping, options, nullptr),
      Error);
}

// A traced run jumps too: it writes the skipped cycles' events itself,
// and D6 compares them with the full traced run's, field by field.
TEST(FastForwardEquivalence, TracedRunsEngageAndEqualTheFullTracedRun) {
  const TaskGraph graph = worked_example();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping = mapping::greedy_mem(analysis);
  sim::SimOptions options;
  options.instances = 500;
  options.record_trace = true;
  const sim::SimResult r = sim::simulate(analysis, mapping, options);
  EXPECT_TRUE(r.fast_forward.enabled);
  EXPECT_TRUE(r.fast_forward.engaged);
  EXPECT_GT(r.fast_forward.skipped_instances, 0);
  bool engaged = false;
  for (const Violation& v :
       check_fast_forward_equivalence(analysis, mapping, options, &engaged)) {
    ADD_FAILURE() << "worked example: " << v.detail;
  }
  EXPECT_TRUE(engaged);

  // A jump across an in-flight fetch translates the queue window its
  // event will trace.
  const SteadyStateAnalysis pipe(transfer_bound_pipe(),
                                 platforms::qs22_single_cell());
  const Mapping across(std::vector<PeId>{1, 2});
  engaged = false;
  for (const Violation& v :
       check_fast_forward_equivalence(pipe, across, options, &engaged)) {
    ADD_FAILURE() << "transfer-bound pipe: " << v.detail;
  }
  EXPECT_TRUE(engaged);

  EXPECT_GE(fuzzed_pairs_are_bit_identical(true), 25)
      << "traced fast-forward engaged on too few pairs";

  // The traced runs of the sim-check benchmark: paper graphs 0-2 under
  // both greedy heuristics, 5000 instances with its overheads.
  for (int g = 0; g < 3; ++g) {
    TaskGraph paper = gen::paper_graph(g);
    gen::set_ccr(paper, 0.775);
    const SteadyStateAnalysis paper_analysis(std::move(paper),
                                             platforms::qs22_single_cell());
    for (const Mapping& m : {mapping::greedy_cpu(paper_analysis),
                             mapping::greedy_mem(paper_analysis)}) {
      sim::SimOptions paper_options;
      paper_options.instances = 5000;
      paper_options.dma_issue_overhead = 5.0e-6;
      paper_options.dispatch_overhead = 30.0e-6;
      paper_options.record_trace = true;
      engaged = false;
      for (const Violation& v : check_fast_forward_equivalence(
               paper_analysis, m, paper_options, &engaged)) {
        ADD_FAILURE() << "paper graph " << g << ": " << v.detail;
      }
      EXPECT_TRUE(engaged) << "paper graph " << g;
    }
  }
}

/// Index of the first event where `a` and `b` differ in any field (the
/// times as bit patterns), or -1 when the traces are equal.
std::int64_t first_difference(const std::vector<obs::TraceEvent>& a,
                              const std::vector<obs::TraceEvent>& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const obs::TraceEvent& x = a[i];
    const obs::TraceEvent& y = b[i];
    if (x.kind != y.kind || x.payload != y.payload || x.pe != y.pe ||
        x.src_pe != y.src_pe || x.task != y.task || x.edge != y.edge ||
        std::bit_cast<std::uint64_t>(x.start) !=
            std::bit_cast<std::uint64_t>(y.start) ||
        std::bit_cast<std::uint64_t>(x.end) !=
            std::bit_cast<std::uint64_t>(y.end) ||
        x.instance != y.instance) {
      return static_cast<std::int64_t>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<std::int64_t>(
                                          std::min(a.size(), b.size()));
}

/// D6 over one failover outcome: the GREEDYMEM mapping loses the SPE of
/// its lowest-numbered SPE task at `fail_at`, traced, with fast_forward
/// off and on.  Returns how many fast-forwarded phases engaged.
int failover_phases_are_bit_identical(const SteadyStateAnalysis& analysis,
                                      const sim::SimOptions& options,
                                      std::int64_t fail_at,
                                      const std::string& where) {
  const Mapping mapping = mapping::greedy_mem(analysis);
  PeId failed = 0;
  for (TaskId t = 0; t < mapping.task_count() && failed == 0; ++t) {
    if (analysis.platform().is_spe(mapping.pe_of(t))) failed = mapping.pe_of(t);
  }
  EXPECT_NE(failed, 0u) << where << ": no SPE hosts a task";
  fault::FaultPlan plan;
  plan.pe_failure = fault::PeFailure{failed, fail_at};
  fault::FailoverOptions failover;
  failover.sim = options;
  failover.sim.record_trace = true;
  failover.sim.fast_forward = false;
  const fault::FailoverOutcome full =
      fault::run_with_failover(analysis, mapping, plan, failover);
  failover.sim.fast_forward = true;
  const fault::FailoverOutcome ff =
      fault::run_with_failover(analysis, mapping, plan, failover);

  EXPECT_TRUE(ff.failover_performed) << where;
  EXPECT_EQ(ff.post_mapping.raw(), full.post_mapping.raw()) << where;
  EXPECT_EQ(ff.downtime_seconds, full.downtime_seconds) << where;
  EXPECT_EQ(ff.result.completion_times, full.result.completion_times)
      << where;
  EXPECT_EQ(ff.result.counters.pe, full.result.counters.pe) << where;
  EXPECT_EQ(first_difference(fault::stitched_trace(ff),
                             fault::stitched_trace(full)),
            -1)
      << where << ": stitched trace";
  int engaged = 0;
  EXPECT_EQ(ff.phases.size(), full.phases.size()) << where;
  for (std::size_t p = 0; p < std::min(ff.phases.size(), full.phases.size());
       ++p) {
    const sim::SimResult& a = ff.phases[p];
    const sim::SimResult& b = full.phases[p];
    const std::string phase = where + ", phase " + std::to_string(p + 1);
    EXPECT_FALSE(b.fast_forward.enabled) << phase;
    EXPECT_TRUE(a.fast_forward.enabled) << phase;
    engaged += a.fast_forward.engaged ? 1 : 0;
    EXPECT_EQ(a.completion_times, b.completion_times) << phase;
    EXPECT_EQ(a.counters.pe, b.counters.pe) << phase;
    EXPECT_EQ(a.dma_transfers, b.dma_transfers) << phase;
    EXPECT_EQ(a.edge_produced, b.edge_produced) << phase;
    EXPECT_EQ(a.edge_delivered, b.edge_delivered) << phase;
    EXPECT_EQ(first_difference(a.trace, b.trace), -1) << phase << ": trace";
  }
  return engaged;
}

// A plan whose only fault is the fail-stop leaves each phase without a
// plan, so the phases follow SimOptions::fast_forward like any run: D6
// holds for the whole failover outcome, phase by phase and stitched.
TEST(FastForwardEquivalence, FailStopOnlyFailoverEqualsTheFullPhases) {
  const SteadyStateAnalysis worked(worked_example(),
                                   platforms::qs22_single_cell());
  sim::SimOptions options;
  options.instances = 400;
  int engaged =
      failover_phases_are_bit_identical(worked, options, 150, "worked example");

  // The sim-check benchmark's graphs and overheads, as in the traced test
  // above.
  for (int g = 0; g < 3; ++g) {
    TaskGraph paper = gen::paper_graph(g);
    gen::set_ccr(paper, 0.775);
    const SteadyStateAnalysis paper_analysis(std::move(paper),
                                             platforms::qs22_single_cell());
    sim::SimOptions paper_options;
    paper_options.instances = 5000;
    paper_options.dma_issue_overhead = 5.0e-6;
    paper_options.dispatch_overhead = 30.0e-6;
    engaged += failover_phases_are_bit_identical(
        paper_analysis, paper_options, 2000,
        "paper graph " + std::to_string(g));
  }
  EXPECT_GE(engaged, 1) << "no failover phase fast-forwarded";
}

TEST(FastForwardEquivalence, OptOutFlagForcesFullSimulation) {
  const TaskGraph graph = worked_example();
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping mapping = mapping::greedy_mem(analysis);
  sim::SimOptions options;
  options.instances = 1500;
  options.fast_forward = false;
  const sim::SimResult r = sim::simulate(analysis, mapping, options);
  EXPECT_FALSE(r.fast_forward.enabled);
  EXPECT_FALSE(r.fast_forward.engaged);
}

}  // namespace
}  // namespace cellstream::check
