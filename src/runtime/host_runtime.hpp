#pragma once
// Host execution engine for mapped streaming applications.
//
// The paper's Section 6.1 contribution is a runtime framework that
// executes a task graph on the Cell given a mapping.  src/sim reproduces
// its *timing* on the modeled hardware; this module reproduces its
// *function*: it actually runs user-provided task code, pipelined
// according to a mapping, on host threads standing in for the PEs.
//
// Semantics mirror the paper's scheduler:
//   * every PE (thread) repeatedly selects a runnable task instance —
//     all inputs present (including the peek look-ahead), all output
//     buffers with a free slot (core/dataflow.hpp, the same rule the
//     simulator uses) — and processes it;
//   * each edge owns a bounded ring of packets sized by the steady-state
//     analysis (buff_{k,l}, firstPeriod differences), so memory use matches
//     the schedule's buffer plan and back-pressure is exactly the model's;
//   * a task with peek = p receives packets for instances i .. i+p of
//     every input (clamped at the end of the stream, where the missing
//     look-ahead is passed as null).
//
// The engine is deterministic in *values* (each task instance sees exactly
// the packets the dataflow defines) though not in interleaving.
//
// Concurrency, as in the paper's §6.1 framework where each PE runs its own
// state machine over its own buffers: selecting, gathering and committing
// a task take no lock, read no clock (unless tracing or a fault plan needs
// a body's own time), and make no system call unless a commit wakes a
// sleeping peer.
//   * Rings.  An edge is a fixed single-producer/single-consumer ring of
//     buffer_depth slots; the packet of instance j lives in slot
//     j % depth.  Only the producer's worker advances `produced`, only the
//     consumer's advances `consumed`, each on its own cache line.
//   * Ownership.  A task's state (next instance, remote flags, its reused
//     TaskInputs) belongs to the worker of its PE; per-worker telemetry is
//     copied into the run's counters after the join.
//   * Wake-ups.  A worker with nothing runnable raises its asleep flag,
//     rechecks for work, and sleeps on the flag (C++20 atomic::wait).  A
//     commit wakes only the PEs at the far end of the edges it changed,
//     and only when their flag is up; the peer whose exchange lowers the
//     flag makes the one system call, so a sleep costs at most one
//     notify.  The flag, the recheck and the edge counters are seq_cst,
//     so no wake-up is lost.
//   * Running time.  A worker reads the clock when it wakes or starts and
//     when it sleeps, parks or exits, and adds each awake span, less the
//     injected fault stalls inside it, to its PE's compute_seconds.
//   * Completion.  Instance i is complete once every sink has committed it
//     (every task reaches a sink); the worker that advances that frontier
//     stamps the instances it passed.
//   * Control plane.  One mutex, off the per-task path, covers the first
//     failure, the failover barrier and the watchdog.
//
// Robustness (docs/ROBUSTNESS.md): a RunOptions::fault_plan injects
// deterministic transient faults (DMA retry/backoff, compute slowdowns,
// one-shot hangs) and at most one permanent PE fail-stop, through the same
// engine.  On a fail-stop the runtime executes drain -> remap -> migrate ->
// resume as an epoch barrier: the failed PE's worker refuses instances
// past the fail index, raises the barrier and wakes every worker; every
// peer parks at its next task boundary (a consistent cut); the failed
// PE's worker remaps the orphaned tasks onto the surviving PEs
// (mapping::remap_after_failure), rebuilds placement (remote flags, wake-up
// targets) and releases the peers — no instance is lost or duplicated
// (invariant I8).
// Stall detection is a progress watchdog on the calling thread: it samples
// per-worker heartbeats (task selections, commits, failover steps), so a
// slow-but-progressing run never times out while a genuine stream-wide
// stall trips after one quiet window.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/steady_state.hpp"
#include "fault/fault_plan.hpp"
#include "mapping/heuristics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace cellstream::runtime {

/// One unit of stream data travelling along an edge.
using Packet = std::vector<std::byte>;

/// Everything a task sees when processing one instance.
struct TaskInputs {
  std::int64_t instance = 0;      ///< Stream index being processed.
  std::int64_t stream_length = 0; ///< Total instances in this run.
  /// inputs[e][d]: packet of the task's e-th input edge (in
  /// TaskGraph::in_edges order) at instance + d, for d = 0 .. peek.
  /// Entries beyond the end of the stream are nullptr.
  std::vector<std::vector<const Packet*>> inputs;
};

/// User task body: consume the inputs, return one packet per *output*
/// edge (in TaskGraph::out_edges order; empty vector for sinks).
using TaskFunction = std::function<std::vector<Packet>(const TaskInputs&)>;

struct RunOptions {
  std::int64_t instances = 1000;
  /// Progress watchdog window: abort (throw) when NO worker makes
  /// instance-level progress — task selection, commit, or a failover
  /// step — for this many consecutive wall seconds.  The deadline rearms
  /// on every progress event, so a slow-but-live run (TSan builds, tiny
  /// machines) never trips it; a genuine stall — dataflow deadlock, hung
  /// task code — trips after one quiet window (detected within an eighth
  /// of a window, at most 50 ms, by the calling thread) and the error
  /// names the stalled workers.  A hung body is not interrupted: the call
  /// returns once it does.
  double wall_timeout_seconds = 120.0;
  /// Record one obs::TraceEvent per task execution (wall seconds since
  /// run start) for the chrome-trace writer.  Off by default: tracing a
  /// long stream costs memory proportional to instances x tasks, and two
  /// clock reads per task around its body.
  bool record_trace = false;
  /// Optional deterministic fault scenario (see src/fault/).  Transient
  /// faults become real sleeps; a permanent fail-stop triggers the
  /// drain -> remap -> migrate -> resume protocol described in the file
  /// comment.  Borrowed, not owned; must outlive the call.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Remap strategy for degraded-mode failover: kGreedyMem or kGreedyCpu
  /// (the fast constructive heuristics).  kMilp is refused: the runtime is
  /// in the failure path, so it never waits on a solver; use the simulator
  /// coordinator (fault::run_with_failover) to evaluate solver-quality
  /// remaps.
  mapping::RemapStrategy failover_strategy = mapping::RemapStrategy::kGreedyMem;
};

struct RunStats {
  double wall_seconds = 0.0;
  /// Per-edge high-water mark of buffered packets (never exceeds the
  /// analysis' buffer_depth).
  std::vector<std::int64_t> max_buffer_occupancy;
  std::uint64_t tasks_executed = 0;
  /// Telemetry in the wall-time domain (obs::TimeDomain::kWall): per-PE
  /// execution counts, running seconds (compute_seconds: the worker was
  /// awake selecting, gathering, running and committing tasks; injected
  /// hang and slowdown stalls are overhead_seconds instead, injected DMA
  /// backoff neither), packet bytes crossing each PE boundary, and
  /// per-instance completion stamps
  /// (`counters.observed_throughput()` is instances per wall second).
  /// Each worker accumulates locally; the calling thread copies every
  /// worker's counters into its PE's slot after the join.
  obs::Counters counters;
  /// Per-execution events (empty unless RunOptions::record_trace), wall
  /// seconds since run start; feed obs::write_chrome_trace.
  std::vector<obs::TraceEvent> trace;
  /// Fault counters of the run (all zero without a plan).
  obs::FaultStats faults;
  /// Mapping in effect when the stream finished — differs from the input
  /// mapping exactly when a failover remap ran.
  Mapping final_mapping;
  /// Per-edge end-to-end accounting: packets the producer pushed and
  /// packets the consumer retired.  Both equal `instances` on a complete
  /// run — invariant I8's raw material.
  std::vector<std::int64_t> edge_produced;
  std::vector<std::int64_t> edge_delivered;
};

/// Execute `options.instances` stream instances of the analysis' graph
/// under `mapping`, one worker thread per *used* PE (every PE when a
/// fail-stop plan is active — an idle PE may inherit remapped tasks).
/// `tasks[k]` is the body of task k; every task must be provided.  Throws
/// on malformed input, on a task returning the wrong number of packets,
/// and on a watchdog stall.
RunStats run_stream(const SteadyStateAnalysis& analysis,
                    const Mapping& mapping,
                    const std::vector<TaskFunction>& tasks,
                    const RunOptions& options = {});

}  // namespace cellstream::runtime
