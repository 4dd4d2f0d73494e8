#pragma once
// Invariant-checking oracle for simulated runs (the repo's correctness
// tooling layer; see docs/TESTING.md for the full catalogue).
//
// The paper's steady-state theory (Section 3) makes mechanically checkable
// promises about any valid execution of a mapped streaming application:
//
//   I1  throughput bound     rho_observed <= 1/T (+ tolerance), where T is
//                            the analytic period of the mapping (the
//                            middle-half rho only where no transient fault
//                            fired),
//   I2  completion order     instance completion times strictly increase,
//   I3  local store          per-SPE stream buffers fit the 256 kB local
//                            store minus code (constraint 1i),
//   I4  DMA queue limits     at every trace instant, <= 16 outstanding
//                            SPE-issued DMAs per SPE and <= 8 outstanding
//                            PPE-issued DMAs per source SPE (1j/1k),
//   I5  buffer occupancy     an edge D_{k,l} never holds more than
//                            buff_{k,l} = data_{k,l} x (firstPeriod(T_l) -
//                            firstPeriod(T_k)) bytes at either endpoint,
//   I6  causality            no task instance starts before all the data
//                            it consumes (including peek look-ahead) has
//                            been produced and, for remote edges, fetched,
//   I7  occupation           no resource's observed per-instance occupation
//                            (PE compute seconds; interface bytes/bandwidth
//                            per direction) exceeds the steady-state
//                            prediction beyond tolerance, and no DMA-queue
//                            peak exceeds the hardware depth (obs::Report's
//                            predicted-vs-observed cross-check),
//   I8  stream integrity     no instance is lost or duplicated: every
//                            instance completes exactly once and every edge
//                            produces and delivers exactly one packet per
//                            instance — under fault injection included
//                            (docs/ROBUSTNESS.md),
//   I9  degraded mapping     after a failover, no task remains on a failed
//                            PE and the post-failover phase's occupation
//                            and throughput match the reduced-platform
//                            steady-state prediction.
//
// I1-I3 need only the SimResult.  I4-I6 are one replay of the execution
// trace (SimOptions::record_trace) against the analysis, check_trace: the
// trace is indexed once, each malformed, duplicated or missing instance is
// one trace-consistency defect, a missing instance is never replayed as an
// event, and the runs the simulator already emits in order are merged in
// linear time rather than sorted.  I7 consumes the telemetry counters
// every simulated run carries; I8/I9 consume the per-edge accounting both
// executors export and the failover outcome of fault::run_with_failover.  Each checker
// returns the violations it found — an empty vector is a pass — so tests
// can exercise them one by one with hand-built traces.

#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "fault/failover.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/simulator.hpp"

namespace cellstream::check {

/// One broken invariant, with enough context to debug the run.
struct Violation {
  std::string invariant;  ///< Stable id ("throughput-bound", "dma-queue", ...).
  std::string detail;     ///< Human-readable description.
};

struct InvariantOptions {
  /// Slack on I1: observed steady throughput may exceed 1/T by this
  /// fraction (discrete completions quantize the window edges).
  double throughput_tolerance = 0.02;
  /// Slack on I7: observed per-instance occupation may exceed the model's
  /// prediction by this fraction (obs::build_report's default).
  double occupation_tolerance = 0.05;
};

/// Aggregated result of check_invariants.
struct InvariantReport {
  std::vector<Violation> violations;
  std::size_t checks_run = 0;          ///< Invariant families evaluated.
  std::size_t trace_events_seen = 0;   ///< Events consumed by I4-I6.
  bool trace_checked = false;          ///< False when the trace was empty.
  /// I4 queue arrays, I5 sequences and I6 PEs the replay had to sort
  /// because the trace did not give them in order (0 on a run of the
  /// simulator that no DMA retry reordered; see check_trace).
  std::size_t replay_sorts = 0;

  bool ok() const { return violations.empty(); }
  /// Multi-line summary for logs and fuzz reproducers.
  std::string to_string() const;
};

// -- Individual invariants (empty result = pass) ---------------------------

/// I1: counters.observed_throughput() (the whole run) must not exceed
/// (1 + tolerance) x analysis.throughput(mapping), and neither may
/// result.steady_throughput (the middle half) on a run where no slowdown,
/// hang or DMA retry fired.
std::vector<Violation> check_throughput_bound(
    const SteadyStateAnalysis& analysis, const Mapping& mapping,
    const sim::SimResult& result, const InvariantOptions& options = {});

/// I2: completion_times strictly increase and makespan equals the last one.
std::vector<Violation> check_completion_order(const sim::SimResult& result);

/// I3: per-SPE buffer bytes of the mapping fit the local-store budget.
std::vector<Violation> check_local_store(const SteadyStateAnalysis& analysis,
                                         const Mapping& mapping);

/// I4-I6 in one replay of `trace`, indexed once by instance number:
///   I4 "dma-queue": at no instant may a SPE hold more than spe_dma_slots
///      outstanding DMAs it issued, nor a source SPE more than
///      ppe_to_spe_dma_slots outstanding PPE-issued fetches;
///   I5 "buffer-occupancy": each edge's produced/fetched/consumed counters
///      stay ordered, and its occupancy at either endpoint never exceeds
///      the steady-state buffer depth;
///   I6 "causality": each fetch starts at or after its producer finished,
///      each compute of instance i once instances 0..min(i + peek, last) of
///      every input are available (produced locally, fetched when remote),
///      and no PE runs two computes at once.
/// Malformed events, duplicated instances and each sequence's first gap
/// are "trace-consistency" defects, each reported once; I5 and I6 replay
/// only the instances the trace holds.  A sequence is sized by its events,
/// not by its instance numbers, so a hostile instance number is a gap,
/// never an allocation.
///
/// The replay is one ordered sweep: the simulator appends each event when
/// it completes, so each queue's completions, each sequence's ends and
/// each PE's compute starts already arrive in order, and I4, I5 and I6
/// merge or scan them in linear time.  A run the trace did not order is
/// sorted alone, exactly as a full sort would order it (an I6 PE whose
/// starts do not strictly increase is sorted as a whole), so the result
/// does not depend on the order of the events in a duplicate-free trace.
std::vector<Violation> check_trace(const SteadyStateAnalysis& analysis,
                                   const Mapping& mapping,
                                   const std::vector<obs::TraceEvent>& trace);

/// Executor-neutral end-to-end accounting of one run — I8's raw material.
/// Both executors export it: accounting_of() adapts either result type.
struct StreamAccounting {
  std::int64_t instances_completed = 0;  ///< Completion stamps recorded.
  std::vector<std::int64_t> edge_produced;   ///< Packets pushed per edge.
  std::vector<std::int64_t> edge_delivered;  ///< Packets retired per edge.
};

StreamAccounting accounting_of(const sim::SimResult& result);
StreamAccounting accounting_of(const runtime::RunStats& stats);

/// I8: a complete `instances`-long run must complete every instance exactly
/// once and move exactly one packet per instance along every edge — no
/// instance lost, none duplicated, even across a failover remap.
std::vector<Violation> check_stream_integrity(const TaskGraph& graph,
                                              const StreamAccounting& accounting,
                                              std::int64_t instances);

/// I9: after losing PE `failed` (a fault plan carries at most one
/// fail-stop), the degraded mapping must host no task on it, still fit
/// every surviving SPE's local store, and the post-failover phase's
/// observed occupation must match the steady-state prediction of the
/// degraded mapping (the reduced-platform prediction — the failed PE hosts
/// nothing).  `post_counters` are the telemetry of the post-failover phase
/// only.
std::vector<Violation> check_degraded_mapping(
    const SteadyStateAnalysis& analysis, const Mapping& post_mapping,
    PeId failed, const obs::Counters& post_counters,
    const InvariantOptions& options = {});

/// I7: build the obs::Report for `counters` and flag every resource whose
/// observed occupation per instance exceeds the steady-state prediction by
/// more than options.occupation_tolerance, plus any DMA-queue peak above
/// the hardware depth.  Skipped (empty result) for wall-clock counters or
/// runs that completed no instance — the cross-check compares against
/// *modeled* time, which only the simulator produces.
std::vector<Violation> check_occupation(const SteadyStateAnalysis& analysis,
                                        const Mapping& mapping,
                                        const obs::Counters& counters,
                                        const InvariantOptions& options = {});

/// Run every invariant against a simulated run.  Trace-based checks are
/// skipped (report.trace_checked == false) when result.trace is empty; the
/// I8 self-check is skipped when the result carries no edge accounting
/// (hand-built results).
InvariantReport check_invariants(const SteadyStateAnalysis& analysis,
                                 const Mapping& mapping,
                                 const sim::SimResult& result,
                                 const InvariantOptions& options = {});

/// Run the full oracle against a fault::run_with_failover outcome: every
/// phase is checked as a self-contained run under the mapping it executed
/// (I1-I7; the phase-2 throughput bound uses the degraded mapping's
/// analysis, so it IS the I9 throughput check), I8 over the stitched
/// whole-stream accounting, and I9 on the post-failover mapping and phase
/// when a failover ran.  Phase indices are prefixed to every violation.
InvariantReport check_failover_invariants(
    const SteadyStateAnalysis& analysis, const fault::FailoverOutcome& outcome,
    const InvariantOptions& options = {});

}  // namespace cellstream::check
