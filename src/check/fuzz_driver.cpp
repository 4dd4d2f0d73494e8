#include "check/fuzz_driver.hpp"

#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "fault/failover.hpp"
#include "fault/fault_plan.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "schedule/periodic_schedule.hpp"
#include "sim/batch.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace cellstream::check {

namespace {

/// Task-count range of a case that only runs the pipeline.
constexpr std::int64_t kMinTasks = 5;
constexpr std::int64_t kMaxTasks = 24;
/// Share of cases drawn as small graphs (3 to kDifferentialMaxTasks
/// tasks) that additionally run the exhaustive/MILP/greedy cross-check.
constexpr double kDifferentialProbability = 0.25;
constexpr std::int64_t kDifferentialMaxTasks = 7;

const char* const kStrategies[] = {"greedy-mem", "greedy-cpu", "greedy-period",
                                   "round-robin", "ppe-only"};
const char* const kPlatforms[] = {"qs22", "qs22", "qs22", "ps3", "qs22-4spe",
                                  "qs22-dual"};

CellPlatform platform_by_name(const std::string& name) {
  if (name == "qs22") return platforms::qs22_single_cell();
  if (name == "ps3") return platforms::playstation3();
  if (name == "qs22-4spe") return platforms::qs22_with_spes(4);
  if (name == "qs22-dual") return platforms::qs22_dual_cell();
  throw Error("fuzz: unknown platform preset '" + name + "'");
}

}  // namespace

std::uint64_t case_seed_of(std::uint64_t base_seed, std::size_t index) {
  Rng rng(base_seed ^ (0x9E3779B97F4A7C15ULL *
                       (static_cast<std::uint64_t>(index) + 1)));
  return rng();
}

FuzzCase make_case(std::uint64_t case_seed, const FuzzOptions& options) {
  Rng rng(case_seed);
  FuzzCase scenario;
  scenario.case_seed = case_seed;
  scenario.differential = rng.bernoulli(kDifferentialProbability);
  scenario.task_count = static_cast<std::size_t>(
      scenario.differential ? rng.uniform_int(3, kDifferentialMaxTasks)
                            : rng.uniform_int(kMinTasks, kMaxTasks));
  scenario.ccr = gen::kPaperCcrValues[rng.uniform_int(0, 5)];
  scenario.strategy =
      kStrategies[rng.uniform_int(0, std::size(kStrategies) - 1)];
  scenario.platform =
      kPlatforms[rng.uniform_int(0, std::size(kPlatforms) - 1)];
  // Fault dimension last, and only drawn when enabled: with the default
  // fault_probability of 0 the rng consumes exactly the draws it always
  // did, so historical case seeds keep reproducing byte-identically.
  if (options.fault_probability > 0.0 &&
      rng.bernoulli(options.fault_probability)) {
    scenario.with_faults = true;
    scenario.fault_seed = scenario.case_seed ^ 0xF4017F4017F401ULL;
  }
  return scenario;
}

std::string FuzzCase::to_string() const {
  std::ostringstream os;
  os << "case " << case_seed << " (" << task_count << " tasks, ccr " << ccr
     << ", " << strategy << ", " << platform
     << (differential ? ", differential" : "")
     << (with_faults ? ", faults" : "") << ")";
  return os.str();
}

std::vector<Violation> run_case(const FuzzCase& scenario,
                                const FuzzOptions& options) {
  std::vector<Violation> violations;
  // A fuzz report is a developer log: keep the failed condition and its
  // source line next to the message.
  const auto pipeline_error = [&violations](const std::string& stage,
                                            const Error& e) {
    std::string detail = stage + ": " + e.what();
    if (*e.context() != '\0') detail += std::string(" [") + e.context() + "]";
    violations.push_back({"pipeline", std::move(detail)});
  };

  // Generate.  Graph-shape knobs come from a child stream of the case
  // seed, so the one seed reproduces the whole scenario.
  Rng shape_rng(scenario.case_seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  gen::DagGenParams params;
  params.task_count = scenario.task_count;
  params.seed = scenario.case_seed;
  params.fat = shape_rng.uniform(0.2, 0.8);
  params.regularity = shape_rng.uniform(0.3, 1.0);
  params.density = shape_rng.uniform(0.2, 0.8);
  params.jump = static_cast<std::size_t>(shape_rng.uniform_int(1, 3));
  TaskGraph graph;
  try {
    graph = gen::daggen_random(params);
    gen::set_ccr(graph, scenario.ccr);
  } catch (const Error& e) {
    pipeline_error("generate", e);
    return violations;
  }

  const SteadyStateAnalysis analysis(graph, platform_by_name(scenario.platform));

  // Map.  Every heuristic admits tasks by local-store fit, so an overflow
  // here is a mapper bug — recorded, then the run falls back to the PPE.
  Mapping mapping;
  try {
    mapping = mapping::run_heuristic(scenario.strategy, analysis);
  } catch (const Error& e) {
    pipeline_error("map", e);
    return violations;
  }
  std::vector<Violation> store = check_local_store(analysis, mapping);
  if (!store.empty()) {
    for (Violation& v : store) {
      violations.push_back({"pipeline",
                            scenario.strategy + " broke its local-store "
                            "admission rule: " + v.detail});
    }
    mapping = mapping::ppe_only(analysis);
  }

  // Schedule: the periodic schedule's own validator must accept it.
  try {
    schedule::PeriodicSchedule sched(analysis, mapping);
    sched.validate();
  } catch (const Error& e) {
    pipeline_error("schedule", e);
  }

  // Simulate with a full trace, then run the invariant oracle.  A faulted
  // case goes through the failover coordinator instead (fail-stop, DMA
  // retry pressure, slowdowns, hangs) and the I8/I9 oracle on top.
  if (scenario.with_faults) {
    try {
      const fault::FaultPlan plan = fault::FaultPlan::random(
          scenario.fault_seed, analysis.platform(),
          static_cast<std::int64_t>(options.instances));
      fault::FailoverOptions failover;
      failover.sim.instances = options.instances;
      failover.sim.record_trace = true;
      Rng strategy_rng(scenario.fault_seed ^ 0x5EC0FDULL);
      failover.strategy = strategy_rng.bernoulli(0.5)
                              ? mapping::RemapStrategy::kGreedyMem
                              : mapping::RemapStrategy::kGreedyCpu;
      const fault::FailoverOutcome outcome =
          fault::run_with_failover(analysis, mapping, plan, failover);
      InvariantReport report =
          check_failover_invariants(analysis, outcome, options.invariants);
      violations.insert(violations.end(),
                        std::make_move_iterator(report.violations.begin()),
                        std::make_move_iterator(report.violations.end()));
    } catch (const Error& e) {
      pipeline_error("failover", e);
    }
  } else {
    try {
      sim::SimOptions sim_options;
      sim_options.instances = options.instances;
      sim_options.record_trace = true;
      const sim::SimResult result =
          sim::simulate(analysis, mapping, sim_options);
      InvariantReport report =
          check_invariants(analysis, mapping, result, options.invariants);
      violations.insert(violations.end(),
                        std::make_move_iterator(report.violations.begin()),
                        std::make_move_iterator(report.violations.end()));
    } catch (const Error& e) {
      pipeline_error("simulate", e);
    }
  }

  // Differential oracle on small graphs: the mapper cross-check, and D6
  // on the traced run of an unfaulted case (its fast-forward against the
  // full run, trace included).
  if (scenario.differential) {
    try {
      DifferentialOptions diff;
      diff.milp_time_limit = options.milp_time_limit;
      diff.max_tasks = kDifferentialMaxTasks;
      DifferentialReport report = cross_check_mappers(analysis, diff);
      violations.insert(violations.end(),
                        std::make_move_iterator(report.violations.begin()),
                        std::make_move_iterator(report.violations.end()));
      if (!scenario.with_faults) {
        sim::SimOptions sim_options;
        sim_options.instances = options.instances;
        sim_options.record_trace = true;
        std::vector<Violation> d6 =
            check_fast_forward_equivalence(analysis, mapping, sim_options);
        violations.insert(violations.end(), std::make_move_iterator(d6.begin()),
                          std::make_move_iterator(d6.end()));
      }
    } catch (const Error& e) {
      pipeline_error("differential", e);
    }
  }
  return violations;
}

FuzzReport run_fuzz(const FuzzOptions& options, std::ostream* log) {
  // Cases are independent (everything derives from the case seed), so the
  // sweep fans out over the batch runner; results land in per-case slots
  // and the report below walks them in seed order, so the log and the
  // failure list are byte-identical to a serial run at any thread count.
  struct CaseResult {
    FuzzCase scenario;
    std::vector<Violation> violations;
  };
  sim::BatchOptions batch;
  batch.threads = options.threads;
  std::vector<CaseResult> results = sim::run_batch_collect<CaseResult>(
      options.cases,
      [&options](std::size_t i) {
        CaseResult r;
        r.scenario = make_case(case_seed_of(options.base_seed, i), options);
        r.violations = run_case(r.scenario, options);
        return r;
      },
      batch);

  FuzzReport report;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FuzzCase& scenario = results[i].scenario;
    std::vector<Violation>& violations = results[i].violations;
    ++report.cases_run;
    ++report.pipelines_simulated;
    if (scenario.differential) ++report.differential_checks;
    if (scenario.with_faults) ++report.fault_scenarios;
    if (!violations.empty()) {
      if (log != nullptr) {
        *log << "FAIL " << scenario.to_string() << ": "
             << violations.size() << " violation(s); reproduce with "
             << "cellstream_fuzz --case " << scenario.case_seed << "\n";
        for (const Violation& v : violations) {
          *log << "  [" << v.invariant << "] " << v.detail << "\n";
        }
      }
      report.failures.push_back({scenario, std::move(violations)});
    } else if (log != nullptr && (i + 1) % 25 == 0) {
      *log << "  " << (i + 1) << "/" << options.cases << " cases clean\n";
    }
  }
  return report;
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << cases_run << " cases (" << pipelines_simulated
     << " simulated pipelines, " << differential_checks
     << " differential cross-checks, " << fault_scenarios
     << " fault scenarios): ";
  if (ok()) {
    os << "all invariants held";
  } else {
    os << failures.size() << " failing case(s)";
    for (const FuzzFailure& f : failures) {
      os << "\n  " << f.scenario.to_string() << " -> "
         << f.violations.size() << " violation(s), reproduce with "
         << "cellstream_fuzz --case " << f.scenario.case_seed;
    }
  }
  return os.str();
}

}  // namespace cellstream::check
