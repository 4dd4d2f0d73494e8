#pragma once
// Seeded differential fuzzer over the full pipeline: generate a random
// DagGen application x CCR variant, map it, build the periodic schedule,
// simulate with a full trace, and run the invariant oracle — plus the
// mapper cross-check and the traced fast-forward rule (D6) on graphs small
// enough for the exhaustive reference.
//
// Every case is derived deterministically from one 64-bit case seed, so a
// failure report is a one-line reproducer:
//
//   cellstream_fuzz --case <seed>
//
// regenerates the exact graph, platform, mapping strategy and simulation,
// and prints the violations (docs/TESTING.md walks through the workflow).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/invariants.hpp"

namespace cellstream::check {

struct FuzzOptions {
  std::uint64_t base_seed = 1;   ///< Stream seed; case i derives from it.
  std::size_t cases = 100;
  /// Stream length per simulated case (fuzz wants many short runs).
  std::size_t instances = 200;
  /// Time budget of the cross-check's MILP.  A quarter of the cases are
  /// graphs of 3 to 7 tasks that also run the cross-check; the others
  /// have 5 to 24 tasks (constants in fuzz_driver.cpp).
  double milp_time_limit = 5.0;
  /// Fraction of cases that additionally run under a random FaultPlan
  /// through the failover coordinator and the I8/I9 oracle.  0 (the
  /// default) draws nothing, so pre-existing case seeds reproduce
  /// byte-identically; `cellstream_fuzz --faults` turns the dimension on.
  double fault_probability = 0.0;
  /// Worker threads for the case sweep (cases are seed-independent, so
  /// the report is byte-identical at any thread count); 0 = hardware
  /// concurrency, 1 = serial.
  std::size_t threads = 0;
  InvariantOptions invariants;
};

/// Fully derived description of one fuzz case (everything a reproduction
/// needs besides FuzzOptions::fault_probability).
struct FuzzCase {
  std::uint64_t case_seed = 0;
  std::size_t task_count = 0;
  double ccr = 0.0;             ///< Paper-style CCR the graph is scaled to.
  std::string strategy;         ///< Mapping heuristic driven through the sim.
  std::string platform;         ///< Platform preset name.
  bool differential = false;    ///< Also cross-check the mappers.
  bool with_faults = false;     ///< Run under a random FaultPlan (I8/I9).
  std::uint64_t fault_seed = 0; ///< Seed of FaultPlan::random when faulted.

  std::string to_string() const;
};

/// Derive case parameters from a case seed (deterministic).
FuzzCase make_case(std::uint64_t case_seed, const FuzzOptions& options);

/// The case seed of case `index` in the stream starting at `base_seed`.
std::uint64_t case_seed_of(std::uint64_t base_seed, std::size_t index);

/// Run one case end to end; returns all violations found (empty = clean).
std::vector<Violation> run_case(const FuzzCase& scenario,
                                const FuzzOptions& options);

struct FuzzFailure {
  FuzzCase scenario;
  std::vector<Violation> violations;
};

struct FuzzReport {
  std::size_t cases_run = 0;
  std::size_t pipelines_simulated = 0;
  std::size_t differential_checks = 0;
  std::size_t fault_scenarios = 0;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

/// Run options.cases seeded cases; progress and failures go to `log` when
/// provided (one line per failure, with the reproducer seed).
FuzzReport run_fuzz(const FuzzOptions& options, std::ostream* log = nullptr);

}  // namespace cellstream::check
