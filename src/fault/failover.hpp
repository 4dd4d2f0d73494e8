#pragma once
// Simulated drain -> remap -> migrate -> resume protocol for permanent PE
// loss (the simulator-side twin of the host runtime's failover path).
//
// The stream is split at the fail-stop instance k into two complete
// simulated phases.  Phase 1 runs the original mapping for instances
// [0, k): when it completes, every edge has produced == consumed == k, so
// the drain frontier is a consistent firstPeriod cut with empty buffers
// by construction.  The coordinator then remaps the orphaned tasks
// (mapping::remap_after_failure, the one remap call of the mapping layer),
// charges a downtime of the remap overhead plus the buffer bytes that must
// be re-established over the interface, and runs phase 2 — instances
// [k, N) on the post-failover mapping, with the instance offset threaded
// through so instance-keyed transient faults stay aligned with the global
// stream position.  The two phases are stitched into one whole-stream
// SimResult for reporting and the I8/I9 oracle.
// Each phase is an ordinary simulation under the plan's transient faults,
// so the simulator alone decides whether it fast-forwards (D6 holds).
//
// Each trace event is stored once: the phases own their traces, and the
// whole-stream result carries none.  stitched_trace() builds the shifted
// whole-stream trace on demand (the Chrome export of a failover run).

#include <vector>

#include "core/mapping.hpp"
#include "core/steady_state.hpp"
#include "fault/fault_plan.hpp"
#include "mapping/heuristics.hpp"
#include "sim/simulator.hpp"

namespace cellstream::fault {

struct FailoverOptions {
  /// Base simulator configuration (instances, overheads, trace, ...).
  /// fault_plan and instance_offset are managed by the coordinator.
  sim::SimOptions sim;
  /// How the orphaned tasks are remapped (mapping::remap_after_failure).
  mapping::RemapStrategy strategy = mapping::RemapStrategy::kGreedyMem;
};

struct FailoverOutcome {
  Mapping post_mapping;  ///< == phase_mappings.front() when no failover ran.
  std::int64_t instances = 0;  ///< Stream length the run was asked for.
  bool failover_performed = false;
  double downtime_seconds = 0.0;
  /// Reduced-platform steady-state prediction 1/T of post_mapping (the
  /// failed PE hosts nothing, so the full-platform analysis of the post
  /// mapping IS the reduced-platform prediction) — invariant I9's bound.
  double predicted_post_throughput = 0.0;
  /// Whole-stream view: completion times, counters and fault counters of
  /// both phases stitched together (phase 2 shifted by phase 1's makespan
  /// plus the downtime).  Its trace is always empty: the events live in
  /// `phases`, and stitched_trace() builds the whole-stream trace.
  sim::SimResult result;
  /// The underlying complete per-phase runs (1 entry when no failover,
  /// 2 otherwise) with the mapping each phase executed — the oracle
  /// checks every phase as a self-contained run.  They own the trace
  /// events of the run (when SimOptions::record_trace is set).
  std::vector<sim::SimResult> phases;
  std::vector<Mapping> phase_mappings;
};

/// Execute `plan` against the mapped stream.  Plans without a permanent
/// failure (or whose failure instance lies outside the stream) degenerate
/// to a single transient-faults-only simulation.  The fail instance is
/// clamped to [1, instances - 1] so both phases are non-empty.  Each
/// failover costs a fixed 1 ms of downtime plus the migrated buffer bytes
/// over the interface.  Throws when no PPE survives the failure.
FailoverOutcome run_with_failover(const SteadyStateAnalysis& analysis,
                                  const Mapping& mapping,
                                  const FaultPlan& plan,
                                  const FailoverOptions& options = {});

/// The whole-stream trace of `outcome`: every phase's events in phase
/// order, each later phase shifted by the makespans and downtimes before
/// it, its instances by the instances before it — the trace one run of the
/// stitched `outcome.result` would have recorded.
std::vector<obs::TraceEvent> stitched_trace(const FailoverOutcome& outcome);

}  // namespace cellstream::fault
