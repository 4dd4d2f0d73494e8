#include "fault/failover.hpp"

#include <algorithm>

#include "mapping/heuristics.hpp"
#include "mapping/milp_mapper.hpp"
#include "support/error.hpp"

namespace cellstream::fault {

namespace {

/// Time budget of the "milp" remap strategy.
constexpr double kMilpRemapSeconds = 2.0;
/// Fixed protocol cost per failover (detection, drain barrier, control
/// traffic), charged to the downtime in simulated seconds.
constexpr double kRemapOverheadSeconds = 1.0e-3;

/// Combine two complete phase runs into one whole-stream view without a
/// trace (the phases keep their events; see stitched_trace).  Phase 2 is
/// shifted by phase 1's makespan plus the failover downtime.
sim::SimResult stitch(const sim::SimResult& a, const sim::SimResult& b,
                      double downtime) {
  sim::SimResult s;
  const double offset = a.makespan + downtime;
  s.completion_times = a.completion_times;
  s.completion_times.reserve(a.completion_times.size() +
                             b.completion_times.size());
  for (const double t : b.completion_times) {
    s.completion_times.push_back(t + offset);
  }
  s.makespan = s.completion_times.back();

  s.counters.domain = a.counters.domain;
  s.counters.pe = a.counters.pe;
  for (std::size_t pe = 0; pe < s.counters.pe.size(); ++pe) {
    s.counters.pe[pe].merge(b.counters.pe[pe]);
  }
  s.counters.instance_completion = s.completion_times;
  s.counters.elapsed_seconds = s.makespan;
  // With a failover in the middle half of the stream, the steady
  // throughput spans the degradation: it reports what the stream actually
  // delivered, not either phase's plateau.
  s.steady_throughput = s.counters.steady_throughput();
  s.dma_transfers = s.counters.total_transfers();

  s.faults = a.faults;
  s.faults.merge(b.faults);

  s.edge_produced = a.edge_produced;
  s.edge_delivered = a.edge_delivered;
  for (std::size_t e = 0; e < s.edge_produced.size(); ++e) {
    s.edge_produced[e] += b.edge_produced[e];
    s.edge_delivered[e] += b.edge_delivered[e];
  }
  return s;
}

/// Quality remap after losing `failed_pe`: solve the mapping MILP on the
/// platform minus that PE, seeded with the greedy-mem remap translated to
/// the reduced PE numbering — so the solver starts from the configuration
/// the stream could resume on immediately and only searches for
/// improvements.  The result is translated back to the original PE ids
/// (the failed PE hosts nothing).  PPEs keep the low indices in both
/// numberings, so removing one PE is a shift.  Multi-chip platforms keep
/// the greedy remap: deleting one PE from a chip-block numbering would
/// re-partition the chips, so the reduced formulation would model the
/// wrong cross-chip link.
Mapping milp_remap_after_failure(const SteadyStateAnalysis& analysis,
                                 const Mapping& mapping, PeId failed_pe) {
  const Mapping greedy =
      mapping::remap_after_failure(analysis, mapping, failed_pe);
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

  mapping::MilpMapperOptions options;
  options.milp.time_limit_seconds = kMilpRemapSeconds;
  options.extra_incumbents.push_back(std::move(warm));
  const mapping::MilpMapperResult solved =
      mapping::solve_optimal_mapping(reduced_analysis, options);

  Mapping result(mapping.task_count(), 0);
  for (TaskId t = 0; t < solved.mapping.task_count(); ++t) {
    const PeId pe = solved.mapping.pe_of(t);
    result.assign(t, pe >= failed_pe ? pe + 1 : pe);
  }
  return result;
}

}  // namespace

FailoverOutcome run_with_failover(const SteadyStateAnalysis& analysis,
                                  const Mapping& mapping,
                                  const FaultPlan& plan,
                                  const FailoverOptions& options) {
  const CellPlatform& platform = analysis.platform();
  plan.validate(platform);
  CS_ENSURE(options.sim.instances >= 1, "run_with_failover: empty stream");
  CS_ENSURE(options.strategy == "greedy-mem" ||
                options.strategy == "greedy-cpu" || options.strategy == "milp",
            "run_with_failover: unknown failover strategy '" +
                options.strategy + "'");
  const std::int64_t n = static_cast<std::int64_t>(options.sim.instances);

  // The executors only ever see the transient slice of the plan; the
  // permanent failure is realized here, by splitting the stream.
  FaultPlan transient = plan;
  transient.pe_failure.reset();
  const FaultPlan* transient_ptr = transient.empty() ? nullptr : &transient;

  FailoverOutcome out;
  out.pre_mapping = mapping;
  out.post_mapping = mapping;
  out.instances = n;

  const bool split =
      plan.pe_failure.has_value() && plan.pe_failure->at_instance < n && n >= 2;
  if (!split) {
    sim::SimOptions single = options.sim;
    single.fault_plan = transient_ptr;
    single.instance_offset = 0;
    // Failover scenarios must replay every event (fault windows and the
    // drain frontier are instance-exact); never skip ahead.
    single.fast_forward = false;
    out.phases.push_back(sim::simulate(analysis, mapping, single));
    // The whole-stream view is the one phase, minus the events it owns.
    sim::SimResult& phase = out.phases.back();
    std::vector<obs::TraceEvent> trace = std::move(phase.trace);
    out.result = phase;
    phase.trace = std::move(trace);
    out.phase_mappings.push_back(mapping);
    out.predicted_post_throughput = analysis.throughput(mapping);
    return out;
  }

  const std::int64_t k =
      std::clamp<std::int64_t>(plan.pe_failure->at_instance, 1, n - 1);
  const PeId failed = plan.pe_failure->pe;

  // Phase 1: drain to the frontier.  A complete k-instance run ends with
  // every edge at produced == consumed == k — empty buffers, so the
  // migration below only re-establishes buffer *regions*, never data.
  sim::SimOptions phase1 = options.sim;
  phase1.instances = static_cast<std::size_t>(k);
  phase1.fault_plan = transient_ptr;
  phase1.instance_offset = 0;
  phase1.fast_forward = false;  // replay every event around the failure
  sim::SimResult r1 = sim::simulate(analysis, mapping, phase1);

  // Remap on the reduced platform.
  if (options.strategy == "milp") {
    out.post_mapping = milp_remap_after_failure(analysis, mapping, failed);
  } else {
    out.post_mapping = mapping::remap_after_failure(analysis, mapping, failed,
                                                    options.strategy);
  }

  // Migrate: every moved task's stream-buffer region crosses the
  // interface once to be re-established at its new host.
  obs::FaultStats failover;
  failover.failovers = 1;
  failover.failed_pe = static_cast<std::int64_t>(failed);
  failover.fail_instance = k;
  mapping::count_migration(analysis, mapping, out.post_mapping, failover);
  out.failover_performed = true;
  out.downtime_seconds = kRemapOverheadSeconds +
                         failover.migrated_bytes / platform.interface_bandwidth;
  failover.downtime_seconds = out.downtime_seconds;
  out.predicted_post_throughput = analysis.throughput(out.post_mapping);

  // Phase 2: resume instances [k, n) on the degraded mapping.  The failed
  // PE hosts nothing, so the full-platform simulation IS the reduced
  // platform; the instance offset keys transient faults to the global
  // stream position (replay determinism across the split).
  sim::SimOptions phase2 = options.sim;
  phase2.instances = static_cast<std::size_t>(n - k);
  phase2.fault_plan = transient_ptr;
  phase2.instance_offset = k;
  phase2.fast_forward = false;  // replay every event around the failure
  sim::SimResult r2 = sim::simulate(analysis, out.post_mapping, phase2);

  out.result = stitch(r1, r2, out.downtime_seconds);
  out.result.faults.merge(failover);
  out.phases.push_back(std::move(r1));
  out.phases.push_back(std::move(r2));
  out.phase_mappings.push_back(mapping);
  out.phase_mappings.push_back(out.post_mapping);
  return out;
}

std::vector<obs::TraceEvent> stitched_trace(const FailoverOutcome& outcome) {
  std::size_t events = 0;
  for (const sim::SimResult& phase : outcome.phases) {
    events += phase.trace.size();
  }
  std::vector<obs::TraceEvent> trace;
  trace.reserve(events);
  double offset = 0.0;
  std::int64_t first_instance = 0;
  for (std::size_t p = 0; p < outcome.phases.size(); ++p) {
    const sim::SimResult& phase = outcome.phases[p];
    for (obs::TraceEvent ev : phase.trace) {
      if (p > 0) {
        ev.start += offset;
        ev.end += offset;
        if (ev.instance >= 0) ev.instance += first_instance;
      }
      trace.push_back(ev);
    }
    offset += phase.makespan + outcome.downtime_seconds;
    first_instance += static_cast<std::int64_t>(phase.completion_times.size());
  }
  return trace;
}

}  // namespace cellstream::fault
