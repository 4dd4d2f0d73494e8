// Tests of the benchmark's own code: the metric math, and that broken
// outputs count as failed operations instead of ending the run.

#include <gtest/gtest.h>
#include <sched.h>

#include <cmath>
#include <stdexcept>

#include "check/invariants.hpp"
#include "checks.hpp"
#include "cores.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "metrics.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace cellstream;

TEST(Metrics, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Expected values from Python: statistics.quantiles(data, n=4).
TEST(Metrics, QuartilesMatchPythonStatistics) {
  const Quartiles two = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  const Quartiles four = quartiles({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(four.q1, 1.25);
  EXPECT_DOUBLE_EQ(four.q2, 2.5);
  EXPECT_DOUBLE_EQ(four.q3, 3.75);
  const Quartiles ten = quartiles({3, 1, 4, 1, 5, 9, 2, 6, 5, 3});
  EXPECT_DOUBLE_EQ(ten.q1, 1.75);
  EXPECT_DOUBLE_EQ(ten.q2, 3.5);
  EXPECT_DOUBLE_EQ(ten.q3, 5.25);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Metrics, GeometricMean) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
  EXPECT_THROW(geomean({}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, 0.0}), std::invalid_argument);
}

TEST(Metrics, FailedShare) {
  EXPECT_DOUBLE_EQ(failed_share(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(failed_share(0, 18), 0.0);
  EXPECT_DOUBLE_EQ(failed_share(1, 4), 0.25);
}

TEST(Tally, ThrowingOperationCountsAsOneFailure) {
  Tally tally;
  tally.run("throws", []() -> Problems { throw std::runtime_error("boom"); });
  tally.run("passes", [] { return Problems{}; });
  EXPECT_EQ(tally.attempted(), 2u);
  EXPECT_EQ(tally.failed(), 1u);
  ASSERT_EQ(tally.failures().size(), 1u);
  EXPECT_NE(tally.failures()[0].find("boom"), std::string::npos);
}

class OutputChecks : public ::testing::Test {
 protected:
  OutputChecks() : analysis_(paper_graph(), platforms::qs22_single_cell()) {}
  static TaskGraph paper_graph() {
    TaskGraph graph = gen::paper_graph(0);
    gen::set_ccr(graph, 0.775);
    return graph;
  }
  SteadyStateAnalysis analysis_;
};

TEST_F(OutputChecks, CorruptedMappingIsOneFailedOperation) {
  const double incumbent = best_seeded_period(analysis_);
  const Mapping good = mapping::greedy_mem(analysis_);
  // Every task on one SPE: its local store cannot hold all the buffers.
  const Mapping corrupted(analysis_.graph().task_count(), 1);
  ASSERT_FALSE(analysis_.feasible(corrupted));

  Tally tally;
  tally.run("corrupted", [&] {
    return mapping_problems(analysis_, corrupted, incumbent);
  });
  tally.run("good", [&] { return mapping_problems(analysis_, good, incumbent); });
  EXPECT_EQ(tally.attempted(), 2u);
  EXPECT_EQ(tally.failed(), 1u);
}

TEST_F(OutputChecks, MappingWorseThanSeededIncumbentFails) {
  const Mapping ppe = ppe_only_mapping(analysis_.graph());
  const double better = 0.5 * analysis_.period(ppe);
  EXPECT_FALSE(mapping_problems(analysis_, ppe, better).empty());
  EXPECT_TRUE(mapping_problems(analysis_, ppe, analysis_.period(ppe)).empty());
}

TEST_F(OutputChecks, SeededInvariantViolationIsOneFailedOperation) {
  const Mapping m = mapping::greedy_mem(analysis_);
  sim::SimOptions options;
  options.instances = 200;
  sim::SimResult run = sim::simulate(analysis_, m, options);
  ASSERT_TRUE(check::check_invariants(analysis_, m, run).ok());
  // Seed an I2 violation: instance 10 completes before instance 9.
  std::swap(run.completion_times[9], run.completion_times[10]);

  Tally tally;
  tally.run("seeded violation", [&] {
    return invariant_problems(check::check_invariants(analysis_, m, run).violations);
  });
  tally.run("next operation", [] { return Problems{}; });
  EXPECT_EQ(tally.attempted(), 2u);
  EXPECT_EQ(tally.failed(), 1u);
}

TEST_F(OutputChecks, TimeLimitStopFailsButNodeBudgetStopDoesNot) {
  mapping::MilpMapperResult r;
  r.status = milp::Status::kLimitFeasible;
  milp::Options options;
  options.max_nodes = 512;
  r.nodes = 512;
  EXPECT_TRUE(milp_stop_problems(r, options).empty());
  r.nodes = 100;
  EXPECT_FALSE(milp_stop_problems(r, options).empty());
  r.status = milp::Status::kOptimal;
  EXPECT_TRUE(milp_stop_problems(r, options).empty());
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer(true);
  tracer.begin_op();
  {
    auto outer = tracer.span("bench", "op");
    auto inner = tracer.span("sim", "simulate");
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, tracer.spans()[0].id);
  EXPECT_EQ(tracer.spans()[1].op, tracer.spans()[0].op);
  const auto summary = tracer.summary();
  EXPECT_NEAR(summary.at("bench").self_s,
              summary.at("bench").total_s - summary.at("sim").total_s, 1e-12);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { auto span = tracer.span("sim", "simulate"); }
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.seconds("sim"), 0.0);
}

int allowed_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  return CPU_COUNT(&set);
}

TEST(CoreRotation, PinsInTurnAndReleases) {
  const int all = allowed_cores();
  CoreRotation cores;
  cores.next();
  EXPECT_EQ(allowed_cores(), all > 1 ? 1 : all);
  cores.release();
  EXPECT_EQ(allowed_cores(), all);
}

}  // namespace
}  // namespace perfbench
