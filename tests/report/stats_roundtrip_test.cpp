// Round-trip of the stats exports on the paper's worked example (Fig. 2
// graph, the mapping with period exactly 1 ms): emit JSON and CSV, parse
// them back, and check the parsed throughput and occupation numbers
// against closed-form values — so the export layer cannot silently
// drop, rename, or garble a field without a test noticing.

#include "report/stats_io.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/steady_state.hpp"
#include "fault/failover.hpp"
#include "mapping/milp_mapper.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"

namespace cellstream::report {
namespace {

/// The paper's worked example: six tasks, all edges 4 kB, mapped one
/// task per SPE; the steady-state period is exactly T0's 1.0 ms of SPE
/// work (see mapping/heuristics_paper_example_test.cpp).
struct WorkedExample {
  TaskGraph graph{"paper-worked-example"};
  Mapping mapping{0, 0};
  WorkedExample() {
    graph.add_task({"T0", 1.2e-3, 1.0e-3, 0, 0.0, 0.0, false});
    graph.add_task({"T1", 1.5e-3, 0.6e-3, 0, 0.0, 0.0, false});
    graph.add_task({"T2", 1.5e-3, 0.6e-3, 0, 0.0, 0.0, false});
    graph.add_task({"T3", 1.5e-3, 0.9e-3, 0, 0.0, 0.0, false});
    graph.add_task({"T4", 1.5e-3, 0.6e-3, 0, 0.0, 0.0, false});
    graph.add_task({"T5", 1.5e-3, 0.6e-3, 0, 0.0, 0.0, false});
    graph.add_edge(0, 1, 4096.0);
    graph.add_edge(0, 2, 4096.0);
    graph.add_edge(1, 3, 4096.0);
    graph.add_edge(2, 3, 4096.0);
    graph.add_edge(3, 4, 4096.0);
    graph.add_edge(4, 5, 4096.0);
    mapping = Mapping(6, 0);
    for (TaskId t = 0; t < 6; ++t) mapping.assign(t, t + 1);
  }
};

obs::Report simulate_report(const WorkedExample& ex, std::size_t instances) {
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());
  EXPECT_DOUBLE_EQ(ss.period(ex.mapping), 1.0e-3);
  sim::SimOptions options;
  options.instances = instances;
  const sim::SimResult run = sim::simulate(ss, ex.mapping, options);
  return obs::build_report(ss, ex.mapping, run.counters);
}

TEST(StatsRoundTrip, JsonParsesBackWithClosedFormValues) {
  WorkedExample ex;
  const obs::Report report = simulate_report(ex, 400);
  const std::string text = stats_json(report);

  const json::Value doc = json::Value::parse(text);
  const std::vector<std::string> problems = validate_stats_json(doc);
  for (const std::string& p : problems) ADD_FAILURE() << p;
  ASSERT_TRUE(problems.empty());

  EXPECT_EQ(doc.at("schema").as_string(), kStatsSchema);
  EXPECT_EQ(doc.at("graph").at("name").as_string(), "paper-worked-example");
  EXPECT_EQ(doc.at("graph").at("tasks").as_number(), 6.0);
  EXPECT_EQ(doc.at("run").at("domain").as_string(), "simulated");
  EXPECT_EQ(doc.at("run").at("instances").as_number(), 400.0);

  // Closed form: the period is T0's 1.0 ms, so rho_predicted = 1000/s and
  // the bottleneck is the compute of T0's SPE (PE 1 = "SPE0").
  EXPECT_DOUBLE_EQ(doc.at("predicted").at("period").as_number(), 1.0e-3);
  EXPECT_DOUBLE_EQ(doc.at("predicted").at("throughput").as_number(), 1000.0);
  EXPECT_EQ(doc.at("predicted").at("bottleneck").as_string(),
            "SPE0 compute");
  // Observed rho converges on the prediction (overheads cost ~1 %).
  EXPECT_NEAR(doc.at("observed").at("steady_throughput").as_number(),
              1000.0, 50.0);

  // The cross-check must be green and internally consistent.
  EXPECT_TRUE(doc.at("crosscheck").at("applicable").as_bool());
  EXPECT_TRUE(doc.at("crosscheck").at("ok").as_bool());
  EXPECT_EQ(doc.at("crosscheck").at("flagged").size(), 0u);

  // Occupation sums: total predicted compute seconds per instance equal
  // the sum of the mapped work (1.0 + 0.6 x 4 + 0.9 ms = 4.3 ms), and
  // every per-resource observation sits within tolerance of prediction.
  double predicted_compute = 0.0;
  for (const json::Value& r : doc.at("resources").items()) {
    const double predicted = r.at("predicted_seconds").as_number();
    const double observed = r.at("observed_seconds").as_number();
    if (r.at("kind").as_string() == "compute") predicted_compute += predicted;
    EXPECT_LE(observed, predicted * 1.05 + 1e-12)
        << r.at("resource").as_string();
  }
  EXPECT_NEAR(predicted_compute, 4.3e-3, 1e-15);

  // Solver section: null for a hand-built mapping.
  EXPECT_TRUE(doc.at("solver").is_null());
}

TEST(StatsRoundTrip, CsvParsesBackConsistentWithJson) {
  WorkedExample ex;
  const obs::Report report = simulate_report(ex, 200);
  const std::string csv = stats_csv(report);

  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "resource,pe,kind,predicted_seconds,observed_seconds,ratio");

  std::size_t rows = 0;
  bool saw_bottleneck = false;
  std::string line;
  while (std::getline(lines, line)) {
    ++rows;
    std::istringstream cells(line);
    std::string resource, pe, kind, predicted, observed, ratio;
    ASSERT_TRUE(std::getline(cells, resource, ','));
    ASSERT_TRUE(std::getline(cells, pe, ','));
    ASSERT_TRUE(std::getline(cells, kind, ','));
    ASSERT_TRUE(std::getline(cells, predicted, ','));
    ASSERT_TRUE(std::getline(cells, observed, ','));
    ASSERT_TRUE(std::getline(cells, ratio, ','));
    if (resource == "SPE0 compute") {
      saw_bottleneck = true;
      EXPECT_DOUBLE_EQ(std::stod(predicted), 1.0e-3);
      EXPECT_NEAR(std::stod(ratio), 1.0, 1e-6);
    }
  }
  // One row per PE per direction/compute.
  const std::size_t pe_count = platforms::qs22_single_cell().pe_count();
  EXPECT_EQ(rows, 3u * pe_count);
  EXPECT_TRUE(saw_bottleneck);
  EXPECT_EQ(report.resources.size(), rows);
}

TEST(StatsRoundTrip, SolverSectionRoundTripsForMilpMappings) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());
  const mapping::MilpMapperResult solved = mapping::solve_optimal_mapping(ss);

  sim::SimOptions options;
  options.instances = 100;
  const sim::SimResult run = sim::simulate(ss, solved.mapping, options);
  obs::Report report = obs::build_report(ss, solved.mapping, run.counters);
  report.solver = mapping::solver_stats(solved);

  const json::Value doc = json::Value::parse(stats_json(report));
  const std::vector<std::string> problems = validate_stats_json(doc);
  for (const std::string& p : problems) ADD_FAILURE() << p;

  const json::Value& solver = doc.at("solver");
  ASSERT_TRUE(solver.is_object());
  EXPECT_EQ(solver.at("status").as_string(), milp::to_string(solved.status));
  EXPECT_EQ(solver.at("nodes").as_number(),
            static_cast<double>(solved.nodes));
  EXPECT_DOUBLE_EQ(solver.at("objective").as_number(), solved.period);
  // The incumbent trajectory made it through: at least one improvement,
  // each stamped with its deterministic (round, nodes) search position,
  // objectives strictly improving down to the final incumbent.
  const json::Value& incumbents = solver.at("incumbents");
  ASSERT_GT(incumbents.size(), 0u);
  double prev = std::numeric_limits<double>::infinity();
  for (const json::Value& inc : incumbents.items()) {
    EXPECT_GE(inc.at("round").as_number(), 0.0);
    EXPECT_GE(inc.at("nodes").as_number(), 0.0);
    EXPECT_LT(inc.at("objective").as_number(), prev);
    prev = inc.at("objective").as_number();
  }
  // The MILP minimizes the period, so the last incumbent is the period
  // the mapper reports (recomputed by the analysis; 5 % default gap).
  EXPECT_NEAR(prev, solved.period, 0.05 * solved.period + 1e-12);
}

// The mapper's local-search and cut counters ride in the solver section as
// optional keys: documents written before they existed still validate.
TEST(StatsRoundTrip, SolverLocalSearchKeysAreOptional) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());
  const mapping::MilpMapperResult solved = mapping::solve_optimal_mapping(ss);
  obs::Report report = simulate_report(ex, 50);
  report.solver = mapping::solver_stats(solved);
  const json::Value doc = stats_to_json(report);
  ASSERT_TRUE(validate_stats_json(doc).empty());
  const json::Value& solver = doc.at("solver");
  EXPECT_GT(solved.mapping_evaluations, 0u);
  EXPECT_GE(solved.mapping_candidates, solved.mapping_evaluations);
  EXPECT_EQ(solver.at("mapping_candidates").as_number(),
            static_cast<double>(solved.mapping_candidates));
  EXPECT_EQ(solver.at("mapping_evaluations").as_number(),
            static_cast<double>(solved.mapping_evaluations));
  EXPECT_EQ(solver.at("polish_seconds").as_number(), solved.polish_seconds);
  EXPECT_EQ(solver.at("proxy_cuts").as_number(),
            static_cast<double>(solved.proxy_cuts));

  // The same section without the four keys (json::Value has no erase).
  json::Value older = json::Value::object();
  for (const char* key :
       {"status", "nodes", "rounds", "lp_iterations", "threads", "objective",
        "best_bound", "gap", "solve_seconds", "incumbents"}) {
    older.set(key, solver.at(key));
  }
  json::Value v2 = doc;
  v2.set("solver", older);
  EXPECT_TRUE(validate_stats_json(v2).empty());
  json::Value v1 = json::Value::object();
  v1.set("schema", json::Value(kStatsSchemaV1));
  for (const char* key :
       {"graph", "platform", "run", "predicted", "observed", "crosscheck",
        "resources", "convergence"}) {
    v1.set(key, doc.at(key));
  }
  v1.set("solver", older);
  EXPECT_TRUE(validate_stats_json(v1).empty());

  // Present but of the wrong type is drift.
  json::Value drift = solver;
  drift.set("mapping_evaluations", json::Value("many"));
  json::Value drifted = doc;
  drifted.set("solver", drift);
  EXPECT_FALSE(validate_stats_json(drifted).empty());
}

TEST(StatsRoundTrip, FaultSectionRoundTripsForFaultedRuns) {
  WorkedExample ex;
  const SteadyStateAnalysis ss(ex.graph, platforms::qs22_single_cell());

  // Fail-stop SPE1 (PE 2, hosting T1) mid-stream, with a light transient
  // DMA fault load so every counter family is exercised.
  fault::FaultPlan plan;
  plan.seed = 404;
  plan.pe_failure = fault::PeFailure{2, 120};
  plan.dma.rate = 0.02;
  plan.dma.max_retries = 4;
  plan.dma.backoff_seconds = 5.0e-5;

  fault::FailoverOptions options;
  options.sim.instances = 240;
  const fault::FailoverOutcome outcome =
      fault::run_with_failover(ss, ex.mapping, plan, options);
  ASSERT_TRUE(outcome.failover_performed);

  obs::Report report =
      obs::build_report(ss, outcome.post_mapping, outcome.result.counters);
  report.faults = outcome.result.faults;
  report.predicted_post_throughput = outcome.predicted_post_throughput;

  const json::Value doc = json::Value::parse(stats_json(report));
  const std::vector<std::string> problems = validate_stats_json(doc);
  for (const std::string& p : problems) ADD_FAILURE() << p;
  ASSERT_TRUE(problems.empty());

  const json::Value& faults = doc.at("faults");
  ASSERT_TRUE(faults.is_object());
  EXPECT_EQ(faults.at("failovers").as_number(), 1.0);
  EXPECT_EQ(faults.at("failed_pe").as_number(), 2.0);
  EXPECT_EQ(faults.at("fail_instance").as_number(), 120.0);
  EXPECT_GT(faults.at("migrated_tasks").as_number(), 0.0);
  EXPECT_GT(faults.at("migrated_bytes").as_number(), 0.0);
  EXPECT_GT(faults.at("downtime_seconds").as_number(), 0.0);
  EXPECT_GT(faults.at("dma_retries").as_number(), 0.0);
  EXPECT_GT(faults.at("backoff_seconds").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(faults.at("predicted_post_throughput").as_number(),
                   outcome.predicted_post_throughput);
  EXPECT_EQ(faults.at("migrated_tasks").as_number(),
            static_cast<double>(outcome.result.faults.migrated_tasks));
}

TEST(StatsRoundTrip, FaultSectionIsNullWithoutAFaultPlan) {
  WorkedExample ex;
  const obs::Report report = simulate_report(ex, 50);
  const json::Value doc = json::Value::parse(stats_json(report));
  EXPECT_TRUE(validate_stats_json(doc).empty());
  ASSERT_TRUE(doc.has("faults"));
  EXPECT_TRUE(doc.at("faults").is_null());
}

TEST(StatsRoundTrip, ValidatorAcceptsLegacyV1AndEnforcesFaultsPresence) {
  WorkedExample ex;
  const obs::Report report = simulate_report(ex, 50);
  const json::Value v2 = stats_to_json(report);
  ASSERT_TRUE(validate_stats_json(v2).empty());

  // A legacy v1 document is the v2 document minus the faults section
  // (json::Value has no erase, so rebuild by copying the other keys).
  json::Value v1 = json::Value::object();
  v1.set("schema", json::Value(kStatsSchemaV1));
  for (const char* key :
       {"graph", "platform", "run", "predicted", "observed", "crosscheck",
        "resources", "convergence", "solver"}) {
    v1.set(key, v2.at(key));
  }
  EXPECT_TRUE(validate_stats_json(v1).empty());

  // v1 carrying the v2-only section is drift, as is v2 missing it.
  json::Value v1_with_faults = v1;
  v1_with_faults.set("faults", json::Value());
  EXPECT_FALSE(validate_stats_json(v1_with_faults).empty());

  json::Value v2_without_faults = v1;
  v2_without_faults.set("schema", json::Value(kStatsSchema));
  EXPECT_FALSE(validate_stats_json(v2_without_faults).empty());

  // Internal consistency: a failover count without a failed PE (or the
  // reverse) cannot come from the real counters.
  json::Value inconsistent = v2;
  json::Value faults = json::Value::object();
  faults.set("dma_retries", json::Value(std::int64_t{0}));
  faults.set("backoff_seconds", json::Value(0.0));
  faults.set("hangs", json::Value(std::int64_t{0}));
  faults.set("hang_seconds", json::Value(0.0));
  faults.set("slowdown_seconds", json::Value(0.0));
  faults.set("failovers", json::Value(std::int64_t{1}));
  faults.set("downtime_seconds", json::Value(1.0e-3));
  faults.set("migrated_tasks", json::Value(std::int64_t{2}));
  faults.set("migrated_bytes", json::Value(8192.0));
  faults.set("failed_pe", json::Value(std::int64_t{-1}));  // inconsistent
  faults.set("fail_instance", json::Value(std::int64_t{10}));
  faults.set("predicted_post_throughput", json::Value(900.0));
  inconsistent.set("faults", std::move(faults));
  EXPECT_FALSE(validate_stats_json(inconsistent).empty());
}

TEST(StatsRoundTrip, ValidatorCatchesSchemaDrift) {
  WorkedExample ex;
  const obs::Report report = simulate_report(ex, 50);
  json::Value doc = stats_to_json(report);
  EXPECT_TRUE(validate_stats_json(doc).empty());

  json::Value wrong_tag = doc;
  wrong_tag.set("schema", json::Value("cellstream-stats-v0"));
  EXPECT_FALSE(validate_stats_json(wrong_tag).empty());

  json::Value inconsistent = doc;
  json::Value crosscheck = json::Value::object();
  crosscheck.set("applicable", json::Value(true));
  crosscheck.set("tolerance", json::Value(0.05));
  crosscheck.set("ok", json::Value(false));  // but nothing flagged
  crosscheck.set("flagged", json::Value::array());
  inconsistent.set("crosscheck", std::move(crosscheck));
  EXPECT_FALSE(validate_stats_json(inconsistent).empty());

  EXPECT_FALSE(validate_stats_json(json::Value(1.0)).empty());
}

}  // namespace
}  // namespace cellstream::report
