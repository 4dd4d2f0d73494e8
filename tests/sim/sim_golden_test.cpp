// Result goldens of the simulator.
//
// Every case below hashes every field of its SimResult — completion
// times, telemetry counters, each trace event field by field (with its
// label, obs::event_label), fault counters, per-edge accounting and
// fast-forward diagnostics — into one FNV-1a word; a failover case hashes
// the stitched whole-stream trace (fault::stitched_trace) with its
// whole-stream result.  The hashes were recorded before edge fetches, memory
// reads and memory writes shared one DMA stream record in the simulator;
// a change that moves any event of any run (its time, its order, what it
// lands, what it books) fails here and has to re-baseline these values on
// purpose.
//
// The cases cover what the event core does: fast-forwarded runs that
// engage, traced runs (which fast-forward too, and hash as the full run
// with its diagnostics reset, see traced_hash), transient DMA retry stalls
// with slowdowns and hangs, fail-stop failover (whose phases fast-forward
// when no transient fault rides along, hashed the same way), a dual Cell
// with PPE fetches through a SPE's proxy stack and cross-chip links, and
// DagGen sources and sinks with main-memory reads and writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/failover.hpp"
#include "fault/fault_plan.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace cellstream::sim {
namespace {

/// FNV-1a over 64-bit words.
class Hash {
 public:
  void add(std::uint64_t v) {
    value_ ^= v;
    value_ *= 1099511628211ull;
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) add(static_cast<std::uint64_t>(c));
  }
  template <typename T>
  void add(const std::vector<T>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const T& v : values) add(v);
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 1469598103934665603ull;
};

/// Hashes `r` with `trace` in place of r.trace, each event with the label
/// the simulator used to store in it.
void add_result(Hash& h, const TaskGraph& graph, const SimResult& r,
                const std::vector<obs::TraceEvent>& trace) {
  h.add(r.completion_times);
  h.add(r.makespan);
  h.add(r.steady_throughput);
  h.add(static_cast<std::uint64_t>(r.dma_transfers));

  const obs::Counters& c = r.counters;
  h.add(static_cast<std::uint64_t>(c.domain));
  h.add(static_cast<std::uint64_t>(c.pe.size()));
  for (const obs::PeCounters& p : c.pe) {
    h.add(static_cast<std::uint64_t>(p.tasks_executed));
    h.add(p.compute_seconds);
    h.add(p.overhead_seconds);
    h.add(static_cast<std::uint64_t>(p.transfers_issued));
    h.add(p.bytes_in);
    h.add(p.bytes_out);
    h.add(static_cast<std::uint64_t>(p.mfc_queue_peak));
    h.add(static_cast<std::uint64_t>(p.proxy_queue_peak));
  }
  h.add(c.instance_completion);
  h.add(c.elapsed_seconds);

  h.add(static_cast<std::uint64_t>(trace.size()));
  for (const obs::TraceEvent& ev : trace) {
    h.add(static_cast<std::uint64_t>(ev.kind));
    h.add(static_cast<std::uint64_t>(ev.payload));
    h.add(obs::event_label(graph, ev));
    h.add(static_cast<std::uint64_t>(ev.pe));
    h.add(static_cast<std::uint64_t>(ev.src_pe));
    h.add(ev.start);
    h.add(ev.end);
    h.add(ev.instance);
    h.add(static_cast<std::int64_t>(ev.edge));
    h.add(static_cast<std::int64_t>(ev.task));
  }

  const obs::FaultStats& f = r.faults;
  h.add(f.dma_retries);
  h.add(f.backoff_seconds);
  h.add(f.hangs);
  h.add(f.hang_seconds);
  h.add(f.slowdown_seconds);
  h.add(f.failovers);
  h.add(f.downtime_seconds);
  h.add(f.migrated_tasks);
  h.add(f.migrated_bytes);
  h.add(f.failed_pe);
  h.add(f.fail_instance);

  h.add(r.edge_produced);
  h.add(r.edge_delivered);

  const FastForwardInfo& ff = r.fast_forward;
  h.add(ff.enabled);
  h.add(ff.engaged);
  h.add(ff.cycle_instances);
  h.add(ff.cycle_seconds);
  h.add(ff.skipped_cycles);
  h.add(ff.skipped_instances);
  h.add(ff.model_period);
  h.add(ff.period_ratio);
}

std::uint64_t result_hash(const TaskGraph& graph, const SimResult& r) {
  Hash h;
  add_result(h, graph, r, r.trace);
  return h.value();
}

/// The hash of a traced run that fast-forwards: its trace is the full
/// run's, bit for bit, so its hash is the one recorded when a trace turned
/// the fast-forward off, with the diagnostics a run reported then.  The
/// cycle the run now detects is pinned by the caller.
std::uint64_t traced_hash(const TaskGraph& graph, SimResult r) {
  r.fast_forward = FastForwardInfo{};
  return result_hash(graph, r);
}

/// The stitched result with the stitched trace, every phase, and what the
/// coordinator decided.  A phase whose plan's only fault is the fail-stop
/// fast-forwards; like traced_hash, every phase hashes with the
/// diagnostics a run reported when failover phases never skipped ahead.
std::uint64_t failover_hash(const TaskGraph& graph,
                            fault::FailoverOutcome outcome) {
  for (SimResult& phase : outcome.phases) phase.fast_forward = FastForwardInfo{};
  Hash h;
  add_result(h, graph, outcome.result, fault::stitched_trace(outcome));
  h.add(static_cast<std::uint64_t>(outcome.phases.size()));
  for (const SimResult& phase : outcome.phases) {
    add_result(h, graph, phase, phase.trace);
  }
  h.add(outcome.failover_performed);
  h.add(outcome.downtime_seconds);
  h.add(outcome.predicted_post_throughput);
  for (PeId pe : outcome.post_mapping.raw()) {
    h.add(static_cast<std::uint64_t>(pe));
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  char text[32];
  std::snprintf(text, sizeof text, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return text;
}

void expect_hash(std::uint64_t actual, std::uint64_t golden,
                 const std::string& what) {
  EXPECT_EQ(actual, golden) << what << ": hash " << hex(actual);
}

/// The paper's worked example (Fig. 2): six tasks, all edges 4 kB.
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

SteadyStateAnalysis paper(int index, std::size_t spes, double ccr) {
  TaskGraph graph = gen::paper_graph(index);
  gen::set_ccr(graph, ccr);
  return SteadyStateAnalysis(std::move(graph),
                             platforms::qs22_with_spes(spes));
}

/// DagGen K=30: its sources read from and its sinks write to main memory.
SteadyStateAnalysis daggen(std::uint64_t seed, double ccr,
                           CellPlatform platform) {
  gen::DagGenParams params;
  params.task_count = 30;
  params.seed = seed;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, ccr);
  return SteadyStateAnalysis(std::move(graph), std::move(platform));
}

Mapping heuristic(const SteadyStateAnalysis& analysis, const char* name) {
  Mapping mapping = mapping::run_heuristic(name, analysis);
  if (!analysis.feasible(mapping)) mapping = mapping::ppe_only(analysis);
  return mapping;
}

/// Every task on PE t mod n of a dual Cell: both PPEs consume edges from
/// SPEs (through the source SPE's proxy stack) and edges cross the chips.
Mapping spread(const SteadyStateAnalysis& analysis) {
  const std::size_t n = analysis.platform().pe_count();
  Mapping mapping(analysis.graph().task_count(), 0);
  for (TaskId t = 0; t < analysis.graph().task_count(); ++t) {
    mapping.assign(t, t % n);
  }
  return mapping;
}

SimOptions traced(std::size_t instances) {
  SimOptions options;
  options.instances = instances;
  options.record_trace = true;
  return options;
}

/// Transient faults only: DMA retry stalls on every kind of transfer, a
/// slowdown window and a one-shot hang.
fault::FaultPlan transient_plan(std::uint64_t seed, PeId slow, PeId hung) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.dma = {0.25, 4, 2.0e-5, 0.5};
  plan.slowdowns.push_back({slow, 40, 120, 2.5});
  plan.hangs.push_back({hung, 90, 3.0e-3});
  return plan;
}

bool has_transfer(const SimResult& r, obs::TraceEvent::Payload payload) {
  for (const obs::TraceEvent& ev : r.trace) {
    if (ev.kind == obs::TraceEvent::Kind::kTransfer && ev.payload == payload) {
      return true;
    }
  }
  return false;
}

TEST(SimGolden, FastForwardRunsThatEngage) {
  const std::uint64_t goldens[] = {
      0x484c3d67336f69b8ULL, 0xac6428854358cc34ULL, 0x63684129ce3413a3ULL,
      0x1d51d7be8f91f9e5ULL};
  const SteadyStateAnalysis worked(worked_example(),
                                   platforms::qs22_single_cell());
  const SteadyStateAnalysis paper1 = paper(1, 8, 0.775);
  const SteadyStateAnalysis dag1 = daggen(1, 1.5, platforms::qs22_dual_cell());
  const SteadyStateAnalysis dag2 =
      daggen(2, 0.775, platforms::qs22_single_cell());
  const SteadyStateAnalysis* cases[] = {&worked, &paper1, &dag1, &dag2};
  const char* strategies[] = {"greedy-mem", "greedy-cpu", "greedy-mem",
                              "greedy-cpu"};
  SimOptions options;
  options.instances = 2000;
  for (std::size_t i = 0; i < 4; ++i) {
    const SimResult r =
        simulate(*cases[i], heuristic(*cases[i], strategies[i]), options);
    EXPECT_TRUE(r.fast_forward.engaged) << "case " << i;
    expect_hash(result_hash(cases[i]->graph(), r), goldens[i],
                "case " + std::to_string(i));
  }
}

TEST(SimGolden, TracedRuns) {
  const std::uint64_t goldens[] = {
      0x6553290753f89141ULL, 0x70e25e9e2e3c1207ULL, 0x4f8b291c5fc408c8ULL,
      0xf705ef00b6e26249ULL, 0xc39239b45d84368cULL, 0x11742c9bae6d4859ULL};
  // {cycle_instances, skipped_instances} of each traced run's jump.
  const std::int64_t cycles[][2] = {{1, 260}, {1, 249}, {1, 264},
                                    {1, 273}, {1, 263}, {1, 247}};
  const char* strategies[] = {"greedy-cpu", "greedy-mem", "ppe-only"};
  std::size_t i = 0;
  for (int graph = 0; graph < 3; ++graph) {
    const SteadyStateAnalysis analysis = paper(graph, 8, 0.775);
    for (int s = 0; s < 2; ++s, ++i) {
      const SimResult r = simulate(
          analysis, heuristic(analysis, strategies[(graph + s) % 3]),
          traced(300));
      EXPECT_FALSE(r.trace.empty());
      const std::string what = "case " + std::to_string(i);
      EXPECT_EQ(r.fast_forward.cycle_instances, cycles[i][0]) << what;
      EXPECT_EQ(r.fast_forward.skipped_instances, cycles[i][1]) << what;
      expect_hash(traced_hash(analysis.graph(), r), goldens[i], what);
    }
  }
}

TEST(SimGolden, TransientFaultRunsWithRetries) {
  const std::uint64_t goldens[] = {
      0xef975c8ced593645ULL, 0xb1874aabf021fe40ULL, 0x6a55eb319a1e92b6ULL,
      0x9fb5589bdc26b377ULL};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const SteadyStateAnalysis analysis =
        daggen(seed, 1.5, platforms::qs22_dual_cell());
    const Mapping mapping =
        heuristic(analysis, seed % 2 == 1 ? "greedy-cpu" : "greedy-mem");
    const fault::FaultPlan plan =
        transient_plan(seed * 31, mapping.pe_of(0), mapping.pe_of(29));
    SimOptions options = traced(300);
    options.fault_plan = &plan;
    // A non-zero offset shifts every instance-keyed draw (failover phases
    // run with the drain frontier here).
    options.instance_offset = seed == 4 ? 57 : 0;
    const SimResult r = simulate(analysis, mapping, options);
    EXPECT_GT(r.faults.dma_retries, 0);
    EXPECT_TRUE(has_transfer(r, obs::TraceEvent::Payload::kMemRead));
    EXPECT_TRUE(has_transfer(r, obs::TraceEvent::Payload::kMemWrite));
    expect_hash(result_hash(analysis.graph(), r), goldens[seed - 1],
                "seed " + std::to_string(seed));
  }
}

TEST(SimGolden, FailoverRuns) {
  const std::uint64_t goldens[] = {0x175a2c79b9a83885ULL,
                                   0xb257c53026127e4cULL};
  {
    // SPE0, the bottleneck, hosts T0 and fails mid-stream.
    const SteadyStateAnalysis analysis(worked_example(),
                                       platforms::qs22_single_cell());
    Mapping mapping(6, 0);
    for (TaskId t = 0; t < 6; ++t) mapping.assign(t, t + 1);
    fault::FaultPlan plan;
    plan.pe_failure = fault::PeFailure{1, 150};
    fault::FailoverOptions options;
    options.sim = traced(400);
    const fault::FailoverOutcome outcome =
        fault::run_with_failover(analysis, mapping, plan, options);
    EXPECT_TRUE(outcome.failover_performed);
    ASSERT_EQ(outcome.phases.size(), 2u);
    // Neither phase carries a transient fault, so both skip ahead.
    for (const SimResult& phase : outcome.phases) {
      EXPECT_TRUE(phase.fast_forward.enabled);
      EXPECT_TRUE(phase.fast_forward.engaged);
    }
    EXPECT_EQ(outcome.phases[0].fast_forward.skipped_instances, 139);
    EXPECT_EQ(outcome.phases[1].fast_forward.skipped_instances, 239);
    expect_hash(failover_hash(analysis.graph(), outcome), goldens[0],
                "worked example");
  }
  {
    // A dual-Cell DagGen graph loses the PE of task 3 under DMA retry
    // stalls.
    const SteadyStateAnalysis analysis =
        daggen(3, 1.5, platforms::qs22_dual_cell());
    const Mapping mapping = heuristic(analysis, "greedy-cpu");
    fault::FaultPlan plan = transient_plan(5, mapping.pe_of(0), 0);
    plan.pe_failure = fault::PeFailure{mapping.pe_of(3), 170};
    fault::FailoverOptions options;
    options.sim = traced(400);
    const fault::FailoverOutcome outcome =
        fault::run_with_failover(analysis, mapping, plan, options);
    EXPECT_TRUE(outcome.failover_performed);
    EXPECT_GT(outcome.result.faults.dma_retries, 0);
    expect_hash(failover_hash(analysis.graph(), outcome), goldens[1],
                "DagGen dual Cell");
  }
}

TEST(SimGolden, DualCellProxyAndCrossChipFetches) {
  const std::uint64_t goldens[] = {
      0x2aaaba747de6d5a6ULL, 0x1723d4ee9ba9ffe2ULL, 0x6de692dd12139cbeULL};
  const SteadyStateAnalysis analysis =
      daggen(2, 0.3, platforms::qs22_dual_cell());
  const CellPlatform& platform = analysis.platform();
  const Mapping mapping = spread(analysis);

  const SimResult plain = simulate(analysis, mapping, traced(300));
  bool proxy = false, cross_chip = false;
  for (const obs::TraceEvent& ev : plain.trace) {
    if (ev.payload != obs::TraceEvent::Payload::kEdge) continue;
    proxy |= platform.is_ppe(ev.pe) && platform.is_spe(ev.src_pe);
    cross_chip |= platform.crosses_chips(ev.pe, ev.src_pe);
  }
  EXPECT_TRUE(proxy);
  EXPECT_TRUE(cross_chip);
  EXPECT_EQ(plain.fast_forward.cycle_instances, 1);
  EXPECT_EQ(plain.fast_forward.skipped_instances, 260);
  expect_hash(traced_hash(analysis.graph(), plain), goldens[0], "traced");

  const fault::FaultPlan plan = transient_plan(11, 0, 1);
  SimOptions faulted = traced(300);
  faulted.fault_plan = &plan;
  const SimResult stalled = simulate(analysis, mapping, faulted);
  EXPECT_GT(stalled.faults.dma_retries, 0);
  expect_hash(result_hash(analysis.graph(), stalled), goldens[1],
              "faulted");

  SimOptions fast;
  fast.instances = 2000;
  const SimResult skipped = simulate(analysis, mapping, fast);
  EXPECT_TRUE(skipped.fast_forward.engaged);
  expect_hash(result_hash(analysis.graph(), skipped), goldens[2],
              "fast-forward");
}

// A task whose main-memory writes bind: short compute, long writes, and
// retry stalls that let a later write land before an earlier one.  A
// write frees its buffer slot when it lands, not when the writes before
// it have landed, so the task may run ahead of the contiguous frontier.
TEST(SimGolden, WriteBoundStreamUnderRetryStalls) {
  const std::uint64_t goldens[] = {0xa628d0c5cffd5773ULL,
                                   0x4984f6770e7d61d7ULL};
  TaskGraph graph("writer");
  graph.add_task({"R", 4e-6, 4e-6, 0, 16384.0, 0.0, false});
  graph.add_task({"W", 4e-6, 4e-6, 0, 0.0, 65536.0, false});
  graph.add_edge(0, 1, 4096.0);
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  for (int spe = 0; spe < 2; ++spe) {
    Mapping mapping(2, 0);
    mapping.assign(0, 1);
    mapping.assign(1, spe == 0 ? 0 : 2);
    fault::FaultPlan plan;
    plan.seed = 3;
    plan.dma = {0.4, 4, 2.0e-5, 0.5};
    SimOptions options = traced(400);
    options.fault_plan = &plan;
    const SimResult r = simulate(analysis, mapping, options);
    std::int64_t last = -1;
    bool out_of_order = false;
    for (const obs::TraceEvent& ev : r.trace) {
      if (ev.payload != obs::TraceEvent::Payload::kMemWrite) continue;
      out_of_order |= ev.instance < last;
      last = std::max(last, ev.instance);
    }
    EXPECT_TRUE(out_of_order) << "writer on PE " << mapping.pe_of(1);
    expect_hash(result_hash(graph, r), goldens[spe],
                "writer on PE " + std::to_string(mapping.pe_of(1)));
  }
}

// The simulator refuses a mapping whose buffers overflow a SPE's local
// store (limit (1i)) with this message.
TEST(SimGolden, LocalStoreOverflowMessage) {
  TaskGraph graph("fat");
  graph.add_task({"A", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  graph.add_task({"B", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  graph.add_edge(0, 1, 200.0 * 1024.0);
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  Mapping mapping(2, 0);
  mapping.assign(0, 3);  // SPE2 holds both endpoints' buffers
  mapping.assign(1, 3);
  try {
    simulate(analysis, mapping, traced(10));
    ADD_FAILURE() << "over-budget mapping was simulated";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "simulate: buffers of SPE2 exceed the local store (800 kB); "
                 "mapping cannot be loaded on real hardware");
  }
}

}  // namespace
}  // namespace cellstream::sim
