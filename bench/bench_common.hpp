#pragma once
// Shared plumbing for the benches: the paper's simulation and MILP
// settings, the speed-up normalization and the report header.
//
// micro_sim and micro_runtime read CELLSTREAM_BENCH_INSTANCES (stream
// length per simulation) so their bench-smoke tests can run them at a
// reduced scale; micro_sim also reads CELLSTREAM_BENCH_EVENTS.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/steady_state.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/milp_mapper.hpp"
#include "report/table.hpp"
#include "sim/simulator.hpp"

namespace cellstream::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

inline std::size_t bench_instances(std::size_t fallback = 5000) {
  return env_size("CELLSTREAM_BENCH_INSTANCES", fallback);
}

/// Simulation options mirroring the paper's runtime.  The dispatch and
/// DMA-issue overheads model its framework's per-instance costs (task
/// selection, resource checks, mailbox signalling, DMA polling on the
/// single-threaded SPEs) — the source of the paper's ~5 % gap between the
/// LP prediction and the measured steady-state throughput.
inline sim::SimOptions paper_sim_options(std::size_t instances) {
  sim::SimOptions o;
  o.instances = instances;
  o.dma_issue_overhead = 5.0e-6;
  o.dispatch_overhead = 30.0e-6;
  return o;
}

/// Per-solve MILP wall limit: the paper's CPLEX solves took ~20 s at the
/// same 5 % gap.
inline constexpr double kPaperMilpSeconds = 20.0;

/// MILP mapper options mirroring the paper's CPLEX usage (5 % gap).
inline mapping::MilpMapperOptions paper_milp_options() {
  mapping::MilpMapperOptions o;
  o.milp.relative_gap = 0.05;
  o.milp.time_limit_seconds = kPaperMilpSeconds;
  return o;
}

/// Simulated speed-up of `m` relative to the PPE-only mapping, the paper's
/// normalization ("throughput normalized to the throughput when using only
/// the PPE").
inline double simulated_speedup(const SteadyStateAnalysis& analysis,
                                const Mapping& m, std::size_t instances) {
  const sim::SimResult mapped =
      sim::simulate(analysis, m, paper_sim_options(instances));
  const sim::SimResult baseline = sim::simulate(
      analysis, ppe_only_mapping(analysis.graph()),
      paper_sim_options(instances));
  return mapped.steady_throughput / baseline.steady_throughput;
}

inline void print_header(const char* title, const char* paper_reference) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_reference);
  std::printf("================================================================\n\n");
}

}  // namespace cellstream::bench
