#include "fault/failover.hpp"

#include <algorithm>

#include "fault/milp_remap.hpp"
#include "fault/remap.hpp"
#include "support/error.hpp"

namespace cellstream::fault {

namespace {

/// Combine two complete phase runs into one whole-stream view.  Phase 2
/// is shifted by phase 1's makespan plus the failover downtime; its
/// instance indices are shifted by the drain frontier `k`.
sim::SimResult stitch(const sim::SimResult& a, const sim::SimResult& b,
                      double downtime, std::int64_t k) {
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

  s.trace = a.trace;
  s.trace.reserve(a.trace.size() + b.trace.size());
  for (obs::TraceEvent ev : b.trace) {
    ev.start += offset;
    ev.end += offset;
    if (ev.instance >= 0) ev.instance += k;
    s.trace.push_back(std::move(ev));
  }

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

obs::FaultSummary fault_summary(const FaultStats& stats,
                                double predicted_post_throughput) {
  obs::FaultSummary summary;
  summary.present = true;
  summary.dma_retries = stats.dma_retries;
  summary.backoff_seconds = stats.backoff_seconds;
  summary.hangs = stats.hangs;
  summary.hang_seconds = stats.hang_seconds;
  summary.slowdown_seconds = stats.slowdown_seconds;
  summary.failovers = stats.failovers;
  summary.downtime_seconds = stats.downtime_seconds;
  summary.migrated_tasks = stats.migrated_tasks;
  summary.migrated_bytes = stats.migrated_bytes;
  summary.failed_pe = stats.failed_pe;
  summary.fail_instance = stats.fail_instance;
  summary.predicted_post_throughput = predicted_post_throughput;
  return summary;
}

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
    out.result = sim::simulate(analysis, mapping, single);
    out.phases.push_back(out.result);
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
    out.post_mapping = milp_remap_after_failure(
        analysis, mapping, failed, options.milp_time_limit_seconds);
  } else {
    out.post_mapping =
        remap_after_failure(analysis, mapping, {failed}, options.strategy);
  }

  // Migrate: every moved task's stream-buffer region crosses the
  // interface once to be re-established at its new host.
  std::int64_t migrated_tasks = 0;
  double migrated_bytes = 0.0;
  for (TaskId t = 0; t < mapping.task_count(); ++t) {
    if (out.post_mapping.pe_of(t) != mapping.pe_of(t)) {
      ++migrated_tasks;
      migrated_bytes += analysis.task_buffer_bytes(t);
    }
  }
  out.failover_performed = true;
  out.downtime_seconds = options.remap_overhead_seconds +
                         migrated_bytes / platform.interface_bandwidth;
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

  out.result = stitch(r1, r2, out.downtime_seconds, k);
  out.result.faults.failovers += 1;
  out.result.faults.downtime_seconds += out.downtime_seconds;
  out.result.faults.migrated_tasks += migrated_tasks;
  out.result.faults.migrated_bytes += migrated_bytes;
  out.result.faults.failed_pe = static_cast<std::int64_t>(failed);
  out.result.faults.fail_instance = k;
  out.phases.push_back(std::move(r1));
  out.phases.push_back(std::move(r2));
  out.phase_mappings.push_back(mapping);
  out.phase_mappings.push_back(out.post_mapping);
  return out;
}

}  // namespace cellstream::fault
