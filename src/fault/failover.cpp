#include "fault/failover.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cellstream::fault {

namespace {

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

}  // namespace

FailoverOutcome run_with_failover(const SteadyStateAnalysis& analysis,
                                  const Mapping& mapping,
                                  const FaultPlan& plan,
                                  const FailoverOptions& options) {
  const CellPlatform& platform = analysis.platform();
  plan.validate(platform);
  CS_ENSURE(options.sim.instances >= 1, "run_with_failover: empty stream");
  const std::int64_t n = static_cast<std::int64_t>(options.sim.instances);

  // The executors only ever see the transient slice of the plan; the
  // permanent failure is realized here, by splitting the stream.
  FaultPlan transient = plan;
  transient.pe_failure.reset();
  sim::SimOptions phase = options.sim;
  phase.fault_plan = transient.empty() ? nullptr : &transient;
  phase.instance_offset = 0;

  FailoverOutcome out;
  out.post_mapping = mapping;
  out.instances = n;

  const bool split =
      plan.pe_failure.has_value() && plan.pe_failure->at_instance < n && n >= 2;
  if (!split) {
    out.phases.push_back(sim::simulate(analysis, mapping, phase));
    // The whole-stream view is the one phase, minus the events it owns.
    sim::SimResult& only = out.phases.back();
    std::vector<obs::TraceEvent> trace = std::move(only.trace);
    out.result = only;
    only.trace = std::move(trace);
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
  phase.instances = static_cast<std::size_t>(k);
  sim::SimResult r1 = sim::simulate(analysis, mapping, phase);

  // Remap on the reduced platform.
  out.post_mapping =
      mapping::remap_after_failure(analysis, mapping, failed, options.strategy);

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
  phase.instances = static_cast<std::size_t>(n - k);
  phase.instance_offset = k;
  sim::SimResult r2 = sim::simulate(analysis, out.post_mapping, phase);

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
