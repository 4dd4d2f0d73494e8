// Rule D10: check_trace, the one replay of I4-I6, against the three
// checkers it replaced (reference_trace_checks.hpp).  On every trace
// without an instance gap both must report the same multiset of
// (invariant, detail) once the reference's second copy of each
// trace-consistency defect is dropped.  The traces are simulations of
// fuzzed DagGen graphs mapped by GREEDYCPU and GREEDYMEM, with and without
// a fault plan (every failover phase under the mapping it ran), and
// perturbed copies of them: shifted windows (some snapped onto another
// event's start or end, so the tie orders matter), duplicated events and
// dropped tail events.  A second case holds check_trace to the order
// independence its in-order replay must keep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "fault/failover.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "reference_trace_checks.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace cellstream::check {
namespace {

using obs::TraceEvent;
using Found = std::vector<std::pair<std::string, std::string>>;

/// The violations as (invariant, detail) pairs in report order; with
/// `only`, just those of the listed invariants.
Found listed(const std::vector<Violation>& violations,
             const std::vector<std::string>& only = {}) {
  Found out;
  for (const Violation& v : violations) {
    if (only.empty() ||
        std::find(only.begin(), only.end(), v.invariant) != only.end()) {
      out.emplace_back(v.invariant, v.detail);
    }
  }
  return out;
}

Found sorted(const std::vector<Violation>& violations) {
  Found out = listed(violations);
  std::sort(out.begin(), out.end());
  return out;
}

/// The three checkers check_trace replaced, with check_causality's copy of
/// the trace-consistency defects dropped (check_buffer_occupancy reports
/// the same ones).
Found reference_found(const SteadyStateAnalysis& analysis,
                      const Mapping& mapping,
                      const std::vector<TraceEvent>& trace) {
  std::vector<Violation> all =
      reference::check_dma_queue_limits(analysis.platform(), trace);
  for (Violation& v :
       reference::check_buffer_occupancy(analysis, mapping, trace)) {
    all.push_back(std::move(v));
  }
  for (Violation& v : reference::check_causality(analysis, mapping, trace)) {
    if (v.invariant != "trace-consistency") all.push_back(std::move(v));
  }
  return sorted(all);
}

/// Instance defects of a trace: some task's computes or edge's fetches
/// lack an instance below one they hold (a gap), or hold one instance
/// twice (a duplicate, reported where check_trace reads the second copy).
struct InstanceDefects {
  bool gap = false;
  bool duplicate = false;
};

/// The sequence an event belongs to: task t's computes are t, edge e's
/// fetches task_count + e; -1 for every other event.
std::int64_t sequence_of(const TaskGraph& graph, const TraceEvent& e) {
  if (e.kind == TraceEvent::Kind::kCompute) return e.task;
  if (e.payload == TraceEvent::Payload::kEdge) {
    return static_cast<std::int64_t>(graph.task_count()) + e.edge;
  }
  return -1;
}

InstanceDefects instance_defects(const TaskGraph& graph,
                                 const std::vector<TraceEvent>& trace) {
  InstanceDefects found;
  std::vector<std::vector<char>> held(graph.task_count() + graph.edge_count());
  for (const TraceEvent& e : trace) {
    if (e.instance < 0 || e.end < e.start) continue;
    const std::int64_t seq = sequence_of(graph, e);
    if (seq < 0) continue;
    auto& seen = held[static_cast<std::size_t>(seq)];
    const auto i = static_cast<std::size_t>(e.instance);
    if (i >= seen.size()) seen.resize(i + 1, 0);
    if (seen[i]) found.duplicate = true;
    seen[i] = 1;
  }
  for (const auto& seen : held) {
    if (std::find(seen.begin(), seen.end(), 0) != seen.end()) found.gap = true;
  }
  return found;
}

/// True when a trace has an instance gap — the only traces the reference
/// replays wrongly.
bool has_instance_gap(const TaskGraph& graph,
                      const std::vector<TraceEvent>& trace) {
  return instance_defects(graph, trace).gap;
}

std::size_t pick(const std::vector<TraceEvent>& trace, Rng& rng) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(trace.size()) - 1));
}

/// The start or the end of a random event, on `pe` half the time.  The
/// simulator's own traces put no two DMAs of one queue back to back at one
/// instant, so the tie orders are only reached through snapped windows.
double snap_time(const std::vector<TraceEvent>& trace, PeId pe, Rng& rng) {
  std::size_t i = pick(trace, rng);
  if (rng.bernoulli(0.5)) {
    while (trace[i].pe != pe) i = (i + 1) % trace.size();
  }
  return rng.bernoulli(0.5) ? trace[i].start : trace[i].end;
}

/// Moves 1-3 windows by up to three periods, half of them snapped so their
/// start or end lands exactly on the start or end of another event.
std::vector<TraceEvent> shift_windows(std::vector<TraceEvent> trace,
                                      double period, Rng& rng) {
  for (std::int64_t n = rng.uniform_int(1, 3); n > 0; --n) {
    TraceEvent& e = trace[pick(trace, rng)];
    double delta = rng.uniform(-3.0, 3.0) * period;
    if (rng.bernoulli(0.5)) {
      delta = snap_time(trace, e.pe, rng) -
              (rng.bernoulli(0.5) ? e.start : e.end);
    }
    e.start += delta;
    e.end += delta;
  }
  return trace;
}

/// Appends copies of one event: usually one, sometimes 6-17, which puts
/// the depth of the 8-slot proxy and 16-slot MFC queues near their limits.
/// With `snap`, the copies are then shifted to start exactly at the start
/// or end of another event on their PE.
std::vector<TraceEvent> duplicate_event(std::vector<TraceEvent> trace,
                                        Rng& rng, bool snap = false) {
  TraceEvent e = trace[pick(trace, rng)];
  if (snap) {
    const double delta = snap_time(trace, e.pe, rng) - e.start;
    e.start += delta;
    e.end += delta;
  }
  const std::int64_t copies = rng.bernoulli(0.3) ? rng.uniform_int(6, 17) : 1;
  for (std::int64_t c = 0; c < copies; ++c) trace.push_back(e);
  return trace;
}

std::vector<TraceEvent> drop_tail(std::vector<TraceEvent> trace, Rng& rng) {
  const auto max_drop =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(trace.size()) / 4);
  trace.resize(trace.size() -
               static_cast<std::size_t>(rng.uniform_int(1, max_drop)));
  return trace;
}

struct Tally {
  std::size_t traces = 0;     ///< Traces compared (clean + perturbed).
  std::size_t skipped = 0;    ///< Perturbed traces left with a gap.
  std::map<std::string, std::size_t> found;  ///< Violations per invariant.
};

/// Compare check_trace with the reference on `trace` and on perturbed
/// copies of it.  The clean trace of a correct simulator must pass.
void compare_on(const SteadyStateAnalysis& analysis, const Mapping& mapping,
                const std::vector<TraceEvent>& trace, double period, Rng& rng,
                const std::string& where, Tally& tally) {
  ASSERT_FALSE(trace.empty()) << where;
  const auto compare = [&](const std::vector<TraceEvent>& replayed,
                           const std::string& what) {
    if (has_instance_gap(analysis.graph(), replayed)) {
      ++tally.skipped;
      return Found{};
    }
    ++tally.traces;
    const Found found = sorted(check_trace(analysis, mapping, replayed));
    for (const auto& [invariant, detail] : found) ++tally.found[invariant];
    EXPECT_EQ(found, reference_found(analysis, mapping, replayed))
        << where << ", " << what;
    return found;
  };
  EXPECT_TRUE(compare(trace, "clean").empty()) << where;
  for (int round = 0; round < 4; ++round) {
    compare(shift_windows(trace, period, rng), "shifted windows");
    compare(duplicate_event(trace, rng), "duplicated event");
    compare(duplicate_event(trace, rng, /*snap=*/true),
            "duplicated event, shifted copies");
    compare(drop_tail(trace, rng), "dropped tail");
    compare(drop_tail(duplicate_event(shift_windows(trace, period, rng), rng),
                      rng),
            "all three");
  }
}

TEST(TraceReference, CheckTraceMatchesTheThreeCheckersItReplaced) {
  Tally tally;
  Rng rng(0x7ACE5EEDULL);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gen::DagGenParams params;
    params.task_count = static_cast<std::size_t>(rng.uniform_int(4, 24));
    params.seed = seed;
    TaskGraph graph = gen::daggen_random(params);
    gen::set_ccr(graph, rng.uniform(0.2, 4.0));
    const CellPlatform platform = seed % 3 == 0
                                      ? platforms::qs22_with_spes(3)
                                      : platforms::qs22_single_cell();
    const SteadyStateAnalysis analysis(graph, platform);
    for (const char* strategy : {"greedy-cpu", "greedy-mem"}) {
      Mapping mapping = std::string(strategy) == "greedy-cpu"
                            ? mapping::greedy_cpu(analysis)
                            : mapping::greedy_mem(analysis);
      if (!analysis.feasible(mapping)) mapping = mapping::ppe_only(analysis);
      const std::int64_t instances = rng.uniform_int(30, 90);
      const std::string where = "seed " + std::to_string(seed) + " " +
                                strategy + ", " +
                                std::to_string(instances) + " instances";

      sim::SimOptions options;
      options.instances = static_cast<std::size_t>(instances);
      options.record_trace = true;
      const sim::SimResult run = sim::simulate(analysis, mapping, options);
      const double period = run.makespan / static_cast<double>(instances);
      compare_on(analysis, mapping, run.trace, period, rng, where, tally);

      const fault::FaultPlan plan =
          fault::FaultPlan::random(seed * 7919, platform, instances);
      fault::FailoverOptions failover;
      failover.sim = options;
      failover.strategy = mapping::parse_remap_strategy(strategy);
      const fault::FailoverOutcome outcome =
          fault::run_with_failover(analysis, mapping, plan, failover);
      for (std::size_t p = 0; p < outcome.phases.size(); ++p) {
        compare_on(analysis, outcome.phase_mappings[p],
                   outcome.phases[p].trace, period, rng,
                   where + ", fault plan phase " + std::to_string(p + 1),
                   tally);
      }
    }
  }
  // Not vacuous: most perturbed traces are compared, and between them
  // they break every family check_trace reports.
  EXPECT_GT(tally.traces, 1500u);
  EXPECT_LT(tally.skipped, tally.traces / 4);
  for (const char* id : {"dma-queue", "buffer-occupancy", "causality",
                         "trace-consistency"}) {
    EXPECT_GT(tally.found[id], 0u) << id;
  }
}

/// `trace` with the instance numbers of every task's computes and every
/// edge's fetches reversed (instance i of n becomes n - 1 - i).  I4 and I5
/// read only the windows, not which instance each one holds, so their
/// verdicts stay; the reversed ends are the worst order for I5's merge.
std::vector<TraceEvent> reverse_instances(const TaskGraph& graph,
                                          std::vector<TraceEvent> trace) {
  std::vector<std::int64_t> length(graph.task_count() + graph.edge_count(),
                                   0);
  for (const TraceEvent& e : trace) {
    const std::int64_t seq = sequence_of(graph, e);
    if (seq >= 0) ++length[static_cast<std::size_t>(seq)];
  }
  for (TraceEvent& e : trace) {
    const std::int64_t seq = sequence_of(graph, e);
    if (seq >= 0) {
      e.instance = length[static_cast<std::size_t>(seq)] - 1 - e.instance;
    }
  }
  return trace;
}

/// Moves one compute so that it starts exactly when the compute before it
/// on its PE starts, keeping its duration: two windows whose order the
/// trace gives but a sort by start does not.
std::vector<TraceEvent> share_start(std::vector<TraceEvent> trace, Rng& rng) {
  std::size_t i = pick(trace, rng);
  for (std::size_t n = 0; n < trace.size(); ++n, i = (i + 1) % trace.size()) {
    if (trace[i].kind != TraceEvent::Kind::kCompute) continue;
    for (std::size_t j = i; j-- > 0;) {
      if (trace[j].kind == TraceEvent::Kind::kCompute &&
          trace[j].pe == trace[i].pe) {
        const double delta = trace[j].start - trace[i].start;
        trace[i].start += delta;
        trace[i].end += delta;
        return trace;
      }
    }
  }
  return trace;
}

struct OrderTally {
  std::size_t traces = 0;        ///< Gap-free, duplicate-free traces shuffled.
  std::size_t skipped = 0;       ///< Traces with a gap or a duplicate.
  std::size_t with_found = 0;    ///< Traces check_trace found something in.
};

/// The order-independence property on one trace: a seeded shuffle of its
/// events gives the identical check_trace vector, and reversing the
/// instance numbers of every sequence gives the identical I4 and I5
/// verdicts.  The trace as emitted takes the replay's in-order paths; the
/// shuffled and the reversed copies take its sorting ones.
void check_order_independence(const SteadyStateAnalysis& analysis,
                              const Mapping& mapping,
                              const std::vector<TraceEvent>& trace, Rng& rng,
                              const std::string& where, OrderTally& tally) {
  const TaskGraph& graph = analysis.graph();
  const InstanceDefects defects = instance_defects(graph, trace);
  if (defects.gap || defects.duplicate) {
    ++tally.skipped;
    return;
  }
  ++tally.traces;
  const std::vector<Violation> found = check_trace(analysis, mapping, trace);
  if (!found.empty()) ++tally.with_found;

  std::vector<TraceEvent> shuffled = trace;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  EXPECT_EQ(listed(check_trace(analysis, mapping, shuffled)), listed(found))
      << where << ", shuffled";

  const std::vector<std::string> windows_only = {"dma-queue",
                                                 "buffer-occupancy"};
  EXPECT_EQ(listed(check_trace(analysis, mapping,
                               reverse_instances(graph, trace)),
                   windows_only),
            listed(found, windows_only))
      << where << ", instances reversed";
}

TEST(TraceReference, CheckTraceDoesNotDependOnTheOrderOfTheEvents) {
  OrderTally tally;
  std::size_t emitted_sorts = 0;  // sorts the traces as emitted needed

  // The D10 corpus: fuzzed DagGen graphs under GREEDYCPU and GREEDYMEM,
  // clean and fault-planned phases, copies with shifted windows, and
  // copies where two computes of one PE start at one instant.
  Rng rng(0x0DE12ULL);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gen::DagGenParams params;
    params.task_count = static_cast<std::size_t>(rng.uniform_int(4, 24));
    params.seed = seed;
    TaskGraph graph = gen::daggen_random(params);
    gen::set_ccr(graph, rng.uniform(0.2, 4.0));
    const CellPlatform platform = seed % 3 == 0
                                      ? platforms::qs22_with_spes(3)
                                      : platforms::qs22_single_cell();
    const SteadyStateAnalysis analysis(graph, platform);
    for (const char* strategy : {"greedy-cpu", "greedy-mem"}) {
      Mapping mapping = std::string(strategy) == "greedy-cpu"
                            ? mapping::greedy_cpu(analysis)
                            : mapping::greedy_mem(analysis);
      if (!analysis.feasible(mapping)) mapping = mapping::ppe_only(analysis);
      const std::int64_t instances = rng.uniform_int(30, 90);
      const std::string where = "seed " + std::to_string(seed) + " " +
                                strategy;
      sim::SimOptions options;
      options.instances = static_cast<std::size_t>(instances);
      options.record_trace = true;
      const sim::SimResult run = sim::simulate(analysis, mapping, options);
      const double period = run.makespan / static_cast<double>(instances);

      fault::FailoverOptions failover;
      failover.sim = options;
      failover.strategy = mapping::parse_remap_strategy(strategy);
      const fault::FailoverOutcome outcome = fault::run_with_failover(
          analysis, mapping,
          fault::FaultPlan::random(seed * 7919, platform, instances),
          failover);
      std::vector<std::pair<const Mapping*, const std::vector<TraceEvent>*>>
          traces = {{&mapping, &run.trace}};
      for (std::size_t p = 0; p < outcome.phases.size(); ++p) {
        traces.emplace_back(&outcome.phase_mappings[p],
                            &outcome.phases[p].trace);
      }
      for (const auto& [phase_mapping, trace] : traces) {
        check_order_independence(analysis, *phase_mapping, *trace, rng,
                                 where, tally);
        for (int round = 0; round < 4; ++round) {
          check_order_independence(analysis, *phase_mapping,
                                   shift_windows(*trace, period, rng), rng,
                                   where + ", shifted windows", tally);
          check_order_independence(analysis, *phase_mapping,
                                   share_start(*trace, rng), rng,
                                   where + ", shared start", tally);
        }
      }
    }
  }

  // A fault sweep: every platform preset, each run under a random fault
  // plan whose DMA retries reorder the issue times of some queues.
  const CellPlatform platforms_swept[] = {
      platforms::qs22_single_cell(), platforms::playstation3(),
      platforms::qs22_with_spes(4), platforms::qs22_dual_cell()};
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    gen::DagGenParams params;
    params.task_count = static_cast<std::size_t>(rng.uniform_int(5, 24));
    params.seed = 1000 + seed;
    TaskGraph graph = gen::daggen_random(params);
    gen::set_ccr(graph, rng.uniform(0.2, 4.0));
    const SteadyStateAnalysis analysis(graph, platforms_swept[seed % 4]);
    const char* strategy = seed % 2 == 0 ? "greedy-cpu" : "greedy-mem";
    const Mapping mapping = mapping::run_heuristic(strategy, analysis);
    const std::int64_t instances = rng.uniform_int(60, 200);
    fault::FailoverOptions failover;
    failover.sim.instances = static_cast<std::size_t>(instances);
    failover.sim.record_trace = true;
    failover.strategy = mapping::parse_remap_strategy(strategy);
    const fault::FailoverOutcome outcome = fault::run_with_failover(
        analysis, mapping,
        fault::FaultPlan::random(seed * 104729, analysis.platform(),
                                 instances),
        failover);
    emitted_sorts += check_failover_invariants(analysis, outcome).replay_sorts;
    for (std::size_t p = 0; p < outcome.phases.size(); ++p) {
      check_order_independence(
          analysis, outcome.phase_mappings[p], outcome.phases[p].trace, rng,
          "fault sweep seed " + std::to_string(seed) + " phase " +
              std::to_string(p + 1),
          tally);
    }
  }

  // Not vacuous: nearly every trace is shuffled, some of them hold
  // violations whose details the order could have changed, and the
  // sweep's own traces already needed the sorting paths.
  EXPECT_GT(tally.traces, 1000u);
  EXPECT_LT(tally.skipped, tally.traces / 10);
  EXPECT_GT(tally.with_found, 100u);
  EXPECT_GT(emitted_sorts, 0u);
}

}  // namespace
}  // namespace cellstream::check
