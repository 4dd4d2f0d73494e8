#pragma once
// The benchmark's four workloads.  Each runs the pipeline the way users do
// (graph -> steady-state analysis -> mapping -> simulator or host runtime
// -> invariant oracle), and each loads a different layer:
//
//   paper-map    the paper's Fig. 7/8 evaluation: its three graphs in 15
//                (SPE count, CCR) configurations, MILP-mapped at a 5 % gap on
//                one thread, then simulated with fast-forward against the
//                PPE-only baseline.  Root-LP factor and pivot cost dominates.
//   tree-search  16 DagGen graphs (K = 15 and 20) on the full QS22, MILP at a
//                5 % gap with a 512-node budget on 4 threads.  Small node LPs;
//                branch-and-bound and warm-started phase-1 repair dominate.
//   stream       paper graph 0 on 1 PPE + 1 SPE under GREEDYMEM, executed by
//                the host runtime with checksum task bodies (2 worker
//                threads).  The runtime's shared lock is the whole cost.
//   sim-check    the three paper graphs under GREEDYCPU and GREEDYMEM: one
//                traced simulation each, replayed by the oracle (I1-I8), and
//                two seeded fault scenarios each, run through the failover
//                coordinator and checked with I1-I9.  Every event is
//                simulated; no solver runs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cores.hpp"
#include "trace.hpp"

namespace perfbench {

struct WorkloadOptions {
  /// Seeds the sim-check fault plans and the stream checksum salt.  The
  /// salt leaves stream's work unchanged.  The fault plans change how much
  /// work a sim-check pass does (when a PE fails, how many DMAs retry,
  /// which slowdowns and hangs fire), so sim-check's spread across seeds
  /// includes those differences; every plan does fail one SPE, so each
  /// scenario takes one failover.
  std::uint64_t seed = 1;
  /// Picks the tree-search graphs: DagGen seeds 8(g-1)+1 .. 8g for K = 15
  /// and 20.  Kept apart from `seed` because the B&B cost differs by orders
  /// of magnitude between graphs; the default 1 gives seeds 1-8.
  std::uint64_t graph_seed = 1;
};

/// What one pass measured.  Times are wall seconds.
struct PassResult {
  double wall_s = 0.0;   ///< Whole pass, traced-run-only probes excluded.
  double probe_s = 0.0;  ///< Traced-run-only probes (root LP, formulation).
  double map_s = 0.0;    ///< Calls that compute the workload's mappings.
  double exec_s = 0.0;   ///< Calls that execute the stream (sim or runtime).
  double check_s = 0.0;  ///< Oracle calls on those executions.
  std::uint64_t executed = 0;  ///< Stream instances the executor completed.
  std::uint64_t checked = 0;   ///< Of those, instances the oracle checked.
  /// Simulated steady throughput of each mapping over the PPE-only one.
  std::vector<double> speedups;
  /// Deterministic work counters: equal in every pass of a run and in every
  /// run of the same build, workload and seeds.
  std::map<std::string, std::uint64_t> counters;
  /// Sums and maxima the per-layer metrics are derived from.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs: graphs, analyses, seeded incumbents, fault plans and
  /// task bodies.
  virtual void setup(Tracer& tracer) = 0;
  /// One pass over the workload's fixed set of operations.  `cores` pins
  /// each single-threaded operation to the next core in turn.
  virtual void pass(Tracer& tracer, Tally& tally, CoreRotation& cores,
                    PassResult& out) = 0;
};

/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

/// Names the inputs a workload's work counters depend on: the workload and
/// the seed that changes its work, if any (tree-search: the graph seed;
/// sim-check: the fault-plan seed).  Runs with equal keys must count the
/// same work.
std::string counter_key(const std::string& name, const WorkloadOptions& options);

/// Per-layer metrics of a traced pass; `tracer` holds the spans of the
/// traced set-up and of that pass.
std::map<std::string, double> per_layer_metrics(const PassResult& pass,
                                                const Tracer& tracer);

}  // namespace perfbench
