#pragma once
// Discrete-event simulator of a mapped streaming application on the Cell.
//
// This is the stand-in for the paper's PlayStation 3 / IBM QS22 runs (the
// hardware is long discontinued; see DESIGN.md).  It executes the same
// scheduler state machine as the paper's framework (Fig. 4): every PE
// cyclically alternates a *communication phase* — watch completed DMAs,
// issue eligible "Get" commands (each interrupting the core for a small
// issue overhead, since SPEs are not multi-threaded) — and a *computation
// phase* — select a runnable task instance, process it, signal the new
// data.  Modeled resources:
//
//   * unrelated-machine compute costs (wppe / wspe),
//   * per-PE bidirectional interfaces shared max-min fairly
//     (des::FlowNetwork), memory traffic included,
//   * the receiver-reads DMA protocol with the Cell's queue limits:
//     at most 16 outstanding SPE-issued DMAs per SPE, at most 8
//     outstanding PPE-issued DMAs per source SPE,
//   * bounded stream buffers sized by the steady-state analysis
//     (firstPeriod differences), duplicated at both endpoints,
//   * per-instance dispatch overhead (the source of the paper's ~5 %
//     model-vs-measurement gap).
//
// All event times live on an integer-nanosecond grid (exact in a double up
// to 2^53 ns), which makes the periodic steady state *exactly* periodic in
// the float sense — the basis of the fast-forward optimization
// (docs/PERFORMANCE.md): once the event pattern provably repeats over a
// full period, the run skips ahead k periods by translating clocks and
// counters (and repeating the cycle's trace events on a traced run), with
// final stats and trace bit-identical to the full simulation.

#include <cstdint>
#include <vector>

#include "core/steady_state.hpp"
#include "fault/fault_plan.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace cellstream::sim {

struct SimOptions {
  /// Stream length in instances.
  std::size_t instances = 10000;
  /// PE time consumed by initiating one DMA / memcpy (computation is
  /// interrupted, then resumes — paper Section 4.1).
  double dma_issue_overhead = 0.5e-6;
  /// Per-task-instance scheduling cost (select task, check resources,
  /// signal dependants — paper Fig. 4a).
  double dispatch_overhead = 1.0e-6;
  /// Simulated-seconds safety net against pathological configurations.
  double max_simulated_seconds = 1e6;
  /// Record a full execution trace (see obs/trace.hpp).  Off by default:
  /// a 10k-instance run generates millions of 40-byte events.
  bool record_trace = false;
  /// Steady-state fast-forward: detect an exactly repeating event pattern
  /// and skip ahead analytically (final stats, and the trace when
  /// record_trace is on, stay bit-identical to a full run — differential
  /// rule D6 in src/check/).  A traced jump writes the skipped cycles'
  /// events, the detected cycle's translated on the tick grid.
  /// Auto-disabled when a fault plan is active (injected faults are
  /// instance-keyed and aperiodic), so a faulted run simulates every
  /// event.  Failover phases follow this rule too: a phase whose plan's
  /// only fault is the fail-stop runs without a plan, and skips ahead.
  bool fast_forward = true;
  /// Optional deterministic fault scenario (see src/fault/): transient
  /// compute slowdowns, one-shot hangs and DMA retry/backoff delays are
  /// injected into the run; the extra time is accounted as overhead so
  /// the I7/I9 occupation cross-check stays exact.  Plans containing a
  /// permanent PE fail-stop are rejected here — drive those through
  /// fault::run_with_failover, which splits the stream around the loss.
  /// The plan is borrowed, not owned; it must outlive the call.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Index of the first instance of this run within the whole stream.
  /// The failover coordinator simulates the post-failure phase with the
  /// offset set to the drain frontier, so instance-keyed faults (DMA
  /// draws, slowdown windows) line up with the global stream position.
  std::int64_t instance_offset = 0;
};

/// Diagnostics of the steady-state fast-forward (docs/PERFORMANCE.md).
struct FastForwardInfo {
  bool enabled = false;   ///< Option on and not auto-disabled.
  bool engaged = false;   ///< A cycle was detected and skipped.
  std::int64_t cycle_instances = 0;  ///< Stream instances per cycle.
  double cycle_seconds = 0.0;        ///< Simulated seconds per cycle.
  std::int64_t skipped_cycles = 0;
  std::int64_t skipped_instances = 0;
  /// Cross-check against core/steady_state: the analytic period T and the
  /// observed per-instance period divided by it.  The simulator can never
  /// beat the bound, so the ratio is >= ~1; it is close to 1 when the
  /// mapping's bottleneck behaves as modeled (dispatch overheads push it
  /// a few percent up — the paper's ~5 % gap).
  double model_period = 0.0;
  double period_ratio = 0.0;
};

struct SimResult {
  /// completion_times[i]: simulated second at which instance i left the
  /// last task of the graph.
  std::vector<double> completion_times;
  double makespan = 0.0;  ///< Completion time of the last instance.
  /// counters.steady_throughput(): instances per second over the middle
  /// half of the stream (pipeline fill and drain excluded).
  double steady_throughput = 0.0;
  std::uint64_t dma_transfers = 0;  ///< counters.total_transfers().
  /// Full telemetry of the run, always recorded: per-PE compute and
  /// overhead seconds, transfers and bytes, and every throughput figure
  /// (observed, steady, windowed).  Feeds obs::build_report and the
  /// predicted-vs-observed cross-check (invariant I7).
  obs::Counters counters;
  /// Execution trace (empty unless SimOptions::record_trace): one compute
  /// event per task and one transfer event per channel (remote-edge fetch,
  /// memory read, memory write) and instance, reserved to that exact count
  /// before the run.
  std::vector<obs::TraceEvent> trace;
  /// Fault counters accumulated by the run (all zero without a plan).
  obs::FaultStats faults;
  /// Per-edge end-to-end accounting at the end of the run: instances the
  /// producer wrote and instances that landed at the consumer.  Equal to
  /// the stream length on a complete run — invariant I8's raw material.
  std::vector<std::int64_t> edge_produced;
  std::vector<std::int64_t> edge_delivered;
  /// What the steady-state fast-forward did (engaged=false on full runs).
  FastForwardInfo fast_forward;
};

/// Simulate `mapping` on the analysis' graph/platform.  Throws on
/// infeasible local-store usage (when enforced) or malformed input.
SimResult simulate(const SteadyStateAnalysis& analysis, const Mapping& mapping,
                   const SimOptions& options = {});

namespace detail {
/// simulate() for the channel-readiness property test: the run also
/// re-derives every channel pick and issue re-validation by probing each
/// channel of the PE, as the scan before the readiness flags did, and
/// throws if a flag disagrees.  Results equal simulate()'s;
/// `picks_checked` receives the number of checks made.
SimResult simulate_checking_picks(const SteadyStateAnalysis& analysis,
                                  const Mapping& mapping,
                                  const SimOptions& options,
                                  std::uint64_t& picks_checked);
}  // namespace detail

}  // namespace cellstream::sim
