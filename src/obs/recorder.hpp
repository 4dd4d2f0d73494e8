#pragma once
// Unified runtime telemetry: the per-run accounting records both execution
// engines produce (sim::Simulator in simulated time, runtime::HostRuntime
// in wall time) — the Counters and, under a fault plan, the FaultStats —
// plus the solver search statistics the MILP mapper exports.
//
// Counters is a plain value.  The simulator derives it from its progress
// counters once, at the end of a run; the host runtime's workers each
// accumulate a private PeCounters, copied into their PE's slot after the
// join.  Throughput is derived here and nowhere else: observed over the
// whole run, steady over the middle half of the stream, and the windowed
// Fig. 6 curve.
//
// The resulting Counters feed obs::Report (predicted-vs-observed
// occupation cross-check, invariant I7) and the JSON/CSV stats exports
// (src/report/stats_io).

#include <cstdint>
#include <string>
#include <vector>

#include "platform/cell.hpp"

namespace cellstream::obs {

/// Which clock the counters were recorded against.  Occupation
/// cross-checks against the steady-state model only apply to simulated
/// time (host wall time measures the host machine, not the modeled Cell).
enum class TimeDomain : std::uint8_t {
  kSimulated,  ///< sim::Simulator — seconds of modeled Cell time.
  kWall,       ///< runtime::HostRuntime — wall seconds since run start.
};

const char* to_string(TimeDomain domain);

/// Counters of one processing element.
struct PeCounters {
  std::uint64_t tasks_executed = 0;  ///< Task instances completed here.
  /// Simulated: time inside task bodies.  Wall: time the worker was awake
  /// running tasks (select, gather, body, commit); wall time minus this
  /// and overhead_seconds is time asleep.
  double compute_seconds = 0.0;
  /// Simulated: dispatch + DMA-issue time.  Wall: injected hang and
  /// slowdown stalls.
  double overhead_seconds = 0.0;
  std::uint64_t transfers_issued = 0;  ///< DMAs this PE initiated.
  /// Bytes crossing this PE's communication interface, per direction.
  /// Memory reads land on the reader's *in* interface, memory writes on
  /// the writer's *out* interface (the paper's bounded-multiport model);
  /// a remote edge counts on the producer's out and the consumer's in.
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  /// Peak outstanding DMA-queue occupancy observed (self-issued MFC
  /// stack, and the 8-deep proxy stack PPEs use to read this SPE).
  std::size_t mfc_queue_peak = 0;
  std::size_t proxy_queue_peak = 0;

  void merge(const PeCounters& other);
  bool operator==(const PeCounters& other) const = default;
};

/// One engine run's telemetry.
struct Counters {
  TimeDomain domain = TimeDomain::kSimulated;
  std::vector<PeCounters> pe;
  /// Period timestamps: completion time of each stream instance (the
  /// moment it left the last task), in the run's time domain.
  std::vector<double> instance_completion;
  double elapsed_seconds = 0.0;  ///< Makespan (sim) or wall time (runtime).

  std::uint64_t instances_completed() const {
    return static_cast<std::uint64_t>(instance_completion.size());
  }
  std::uint64_t total_executions() const;
  std::uint64_t total_transfers() const;

  /// Instances per second over the whole run (0 when nothing ran).
  double observed_throughput() const;
  /// Instances per second over the middle half of the stream (pipeline
  /// fill and drain excluded) — the paper's steady-state measurement.
  double steady_throughput() const;

  /// Sliding-window throughput samples (the paper's Fig. 6): one
  /// (instance, instances/s) pair per completed index multiple of
  /// `stride`, over the trailing `window` instances.
  std::vector<std::pair<std::size_t, double>> windowed_throughput(
      std::size_t window = 250, std::size_t stride = 100) const;
};

/// Fault-injection and failover counters of one run under a
/// fault::FaultPlan.  Both executors fill it (sim::SimResult::faults,
/// runtime::RunStats::faults), and Report::faults exports it (stats
/// schema v2).
struct FaultStats {
  std::int64_t dma_retries = 0;       ///< Failed DMA attempts re-issued.
  double backoff_seconds = 0.0;       ///< Total retry backoff served.
  std::int64_t hangs = 0;             ///< Hang specs that fired.
  double hang_seconds = 0.0;          ///< Total hang stall injected.
  double slowdown_seconds = 0.0;      ///< Extra compute time injected.
  std::int64_t failovers = 0;         ///< Drain->remap->resume executions.
  double downtime_seconds = 0.0;      ///< Time the stream was paused.
  std::int64_t migrated_tasks = 0;    ///< Tasks moved off failed PEs.
  double migrated_bytes = 0.0;        ///< Buffer bytes re-established.
  std::int64_t failed_pe = -1;        ///< PE lost permanently (-1: none).
  std::int64_t fail_instance = -1;    ///< Instance index of the loss.

  /// Accumulate another record (phase stitching, per-worker totals).
  void merge(const FaultStats& other);
};

/// Search statistics of one MILP mapper solve, in obs vocabulary so the
/// report layer does not depend on the solver (mapping::solver_stats
/// converts milp::SearchStats).
struct SolverStats {
  bool present = false;   ///< False when the mapping came from a heuristic.
  std::string status;     ///< "optimal", "limit-feasible", ...
  std::size_t nodes = 0;
  std::size_t rounds = 0;
  std::size_t lp_iterations = 0;
  std::size_t threads = 0;
  double objective = 0.0;
  double best_bound = 0.0;
  double gap = 0.0;
  double solve_seconds = 0.0;
  /// Local-search candidates considered, those fully accounted, and their
  /// wall seconds (mapper polish of seeds, warm starts and LP roundings).
  std::size_t mapping_candidates = 0;
  std::size_t mapping_evaluations = 0;
  double polish_seconds = 0.0;
  /// Proxy-slot (1k) cut rows the mapper appended and re-solved with.
  std::size_t proxy_cuts = 0;
  /// Incumbent trajectory: each improvement of the best known objective,
  /// stamped with the deterministic search position it was committed at.
  struct Incumbent {
    std::size_t round = 0;  ///< 0 = initial incumbent, before any round.
    std::size_t nodes = 0;  ///< Nodes committed when it was accepted.
    double objective = 0.0;
  };
  std::vector<Incumbent> incumbents;
};

}  // namespace cellstream::obs
