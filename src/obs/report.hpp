#pragma once
// Predicted-vs-observed occupation report.
//
// The steady-state model (core/steady_state.hpp, the MILP's constraints
// 1a-1k) predicts each resource's occupation per stream instance: compute
// seconds per PE, and transfer seconds per PE interface direction
// (bytes / interface_bandwidth).  The telemetry counters observe the same
// quantities from an actual run.  This report lines the two up per
// resource and flags any resource whose *observed* occupation exceeds the
// *prediction* beyond tolerance — such an excess means either the engine
// used a resource the model does not account for, or the accounting
// misattributed traffic (both have been real bugs).  The check is
// invariant I7 (check/invariants.hpp wires it into the oracle and the
// fuzz driver); `cellstream_cli stats` exports the report as JSON/CSV
// through src/report/stats_io.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/steady_state.hpp"
#include "obs/recorder.hpp"

namespace cellstream::obs {

/// One resource's predicted and observed per-instance occupation, both in
/// seconds (transfer bytes are converted through the interface bandwidth,
/// matching the period terms of the model).
struct ResourceSample {
  enum class Kind : std::uint8_t { kCompute, kIn, kOut };
  std::string resource;  ///< "SPE3 compute", "SPE3 in", "SPE3 out".
  PeId pe = 0;
  Kind kind = Kind::kCompute;
  double predicted = 0.0;
  double observed = 0.0;

  /// observed / predicted; 0 when the prediction is zero.
  double ratio() const { return predicted > 0.0 ? observed / predicted : 0.0; }
};

const char* to_string(ResourceSample::Kind kind);

/// Everything `cellstream_cli stats` exports for one run.
struct Report {
  // Identity.
  std::string graph;
  std::size_t tasks = 0;
  std::size_t edges = 0;
  std::size_t ppes = 0;
  std::size_t spes = 0;

  // Run summary.
  TimeDomain domain = TimeDomain::kSimulated;
  std::uint64_t instances = 0;
  double elapsed_seconds = 0.0;
  std::uint64_t executions = 0;
  std::uint64_t transfers = 0;

  // Model prediction.
  double predicted_period = 0.0;
  double predicted_throughput = 0.0;
  std::string bottleneck;

  // Observation.
  double observed_throughput = 0.0;
  double steady_throughput = 0.0;

  // Per-resource occupation and the cross-check verdict.
  std::vector<ResourceSample> resources;
  double tolerance = 0.0;
  /// True when the cross-check applies (simulated domain, >= 1 instance).
  bool crosscheck_applicable = false;
  /// Human-readable description of each flagged resource; empty = I7 green.
  std::vector<std::string> flagged;

  /// Fig.-6 convergence curve: (instance index, instances/s) samples.
  std::vector<std::pair<std::size_t, double>> convergence;

  /// MILP search statistics when the mapping came from the exact solver.
  SolverStats solver;

  /// Fault/failover counters when the run executed under a FaultPlan
  /// (empty: no plan; a plan that injected nothing still has a record).
  /// build_report cannot derive these from the telemetry counters — the
  /// executor's caller assigns them.
  std::optional<FaultStats> faults;
  /// Reduced-platform steady-state prediction of the post-failover
  /// mapping (0 when no failover ran) — invariant I9's bound.
  double predicted_post_throughput = 0.0;

  bool crosscheck_ok() const { return flagged.empty(); }
};

/// Build the report for one run.  The counters must belong to a run of
/// `mapping` on the analysis' graph/platform (PE count is validated).
/// Observed occupation may exceed the prediction by the fraction
/// `occupation_tolerance` before the cross-check flags the resource
/// (invariant I7's tolerance).  The convergence curve is
/// Counters::windowed_throughput at its default window and stride.
Report build_report(const SteadyStateAnalysis& analysis,
                    const Mapping& mapping, const Counters& counters,
                    double occupation_tolerance = 0.05);

}  // namespace cellstream::obs
