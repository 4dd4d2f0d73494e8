#include "check/differential.hpp"

#include <bit>
#include <cmath>
#include <sstream>

#include "mapping/exhaustive.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/milp_mapper.hpp"
#include "support/strings.hpp"

namespace cellstream::check {

namespace {

void add(std::vector<Violation>& out, std::string detail) {
  out.push_back({"differential", std::move(detail)});
}

/// Every field equal, the times as bit patterns.
bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.kind == b.kind && a.payload == b.payload && a.pe == b.pe &&
         a.src_pe == b.src_pe && a.task == b.task && a.edge == b.edge &&
         std::bit_cast<std::uint64_t>(a.start) ==
             std::bit_cast<std::uint64_t>(b.start) &&
         std::bit_cast<std::uint64_t>(a.end) ==
             std::bit_cast<std::uint64_t>(b.end) &&
         a.instance == b.instance;
}

}  // namespace

std::vector<Violation> check_outcomes(
    const SteadyStateAnalysis& analysis,
    const std::vector<MapperOutcome>& outcomes,
    const DifferentialOptions& options) {
  std::vector<Violation> out;
  const double rel = options.relative_tolerance;

  // D1: feasibility and period consistency against the shared analysis.
  std::vector<bool> feasible(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const MapperOutcome& o = outcomes[i];
    const std::vector<std::string> problems = analysis.violations(o.mapping);
    feasible[i] = problems.empty();
    if (o.claims_feasible) {
      for (const std::string& p : problems) {
        add(out, o.name + " returned an infeasible mapping: " + p);
      }
    }
    const double recomputed = analysis.period(o.mapping);
    if (std::abs(recomputed - o.period) > rel * std::max(1.0, recomputed)) {
      add(out, o.name + " reports period " + format_number(o.period) +
                   "s but the analysis recomputes " +
                   format_number(recomputed) + "s for its mapping");
    }
  }

  // D2: identical mappings must carry identical periods.
  for (std::size_t a = 0; a < outcomes.size(); ++a) {
    for (std::size_t b = a + 1; b < outcomes.size(); ++b) {
      if (outcomes[a].mapping == outcomes[b].mapping &&
          outcomes[a].period != outcomes[b].period) {
        add(out, outcomes[a].name + " and " + outcomes[b].name +
                     " found the identical mapping but report different "
                     "periods (" +
                     format_number(outcomes[a].period) + "s vs " +
                     format_number(outcomes[b].period) + "s)");
      }
    }
  }

  // D3: optimality claims.  period_opt <= period_other * (1 + gap), for
  // every *feasible* competitor (the optimum needn't beat a mapping that
  // breaks a hard constraint).
  for (const MapperOutcome& opt : outcomes) {
    if (!opt.optimal) continue;
    for (std::size_t b = 0; b < outcomes.size(); ++b) {
      const MapperOutcome& other = outcomes[b];
      if (&other == &opt || !feasible[b]) continue;
      const double limit =
          other.period * (1.0 + opt.claimed_gap) + rel * other.period;
      if (opt.period > limit) {
        add(out, opt.name + " claims optimality within " +
                     format_number(opt.claimed_gap * 100.0) + "% but " +
                     other.name + " beats it: " +
                     format_number(opt.period) + "s vs " +
                     format_number(other.period) + "s");
      }
    }
  }

  // D4: lower bounds must not exceed any proven optimum (gap 0).
  for (const MapperOutcome& opt : outcomes) {
    if (!opt.optimal || opt.claimed_gap > 0.0) continue;
    for (const MapperOutcome& other : outcomes) {
      if (!other.has_lower_bound) continue;
      if (other.lower_bound > opt.period * (1.0 + rel)) {
        add(out, other.name + " claims lower bound " +
                     format_number(other.lower_bound) + "s above the " +
                     opt.name + " optimum " + format_number(opt.period) +
                     "s");
      }
    }
  }
  return out;
}

DifferentialReport cross_check_mappers(const SteadyStateAnalysis& analysis,
                                       const DifferentialOptions& options) {
  CS_ENSURE(analysis.graph().task_count() <= options.max_tasks,
            "cross_check_mappers: graph too large for the exhaustive "
            "reference (" +
                std::to_string(analysis.graph().task_count()) + " tasks > " +
                std::to_string(options.max_tasks) + ")");
  DifferentialReport report;

  const auto exhaustive = mapping::exhaustive_optimal_mapping(analysis);
  CS_ENSURE(exhaustive.has_value(),
            "cross_check_mappers: no feasible mapping exists");
  {
    MapperOutcome outcome;
    outcome.name = "exhaustive";
    outcome.mapping = exhaustive->mapping;
    outcome.period = exhaustive->period;
    outcome.optimal = true;
    report.outcomes.push_back(std::move(outcome));
  }

  mapping::MilpMapperOptions milp_options;
  milp_options.milp.time_limit_seconds = options.milp_time_limit;
  const mapping::MilpMapperResult milp =
      mapping::solve_optimal_mapping(analysis, milp_options);
  {
    MapperOutcome outcome;
    outcome.name = "milp";
    outcome.mapping = milp.mapping;
    outcome.period = milp.period;
    // Only a clean kOptimal run earned its gap claim; a limit-terminated
    // run still contributes its incumbent (D1/D2) and bound (D4).
    outcome.optimal = milp.status == milp::Status::kOptimal;
    outcome.claimed_gap = milp_options.milp.relative_gap;
    outcome.has_lower_bound = milp.status == milp::Status::kOptimal ||
                              milp.status == milp::Status::kLimitFeasible;
    outcome.lower_bound = milp.best_bound;
    report.outcomes.push_back(std::move(outcome));
  }

  // D5: the parallel solver must be bit-identical to the sequential one.
  // Only a time/node-limit stop (which depends on the wall clock) may
  // legitimately diverge, so the rule applies when both runs finished.
  if (options.milp_threads > 1) {
    milp_options.milp.threads = options.milp_threads;
    const mapping::MilpMapperResult parallel =
        mapping::solve_optimal_mapping(analysis, milp_options);
    const bool sequential_finished = milp.status == milp::Status::kOptimal;
    const bool parallel_finished = parallel.status == milp::Status::kOptimal;
    if (sequential_finished && parallel_finished) {
      if (!(parallel.mapping == milp.mapping)) {
        report.violations.push_back(
            {"differential",
             "milp with " + std::to_string(options.milp_threads) +
                 " threads returned a different mapping than the "
                 "sequential solver (determinism broken)"});
      }
      if (parallel.period != milp.period ||
          parallel.best_bound != milp.best_bound) {
        report.violations.push_back(
            {"differential",
             "milp with " + std::to_string(options.milp_threads) +
                 " threads: period/bound not bit-identical (" +
                 format_number(parallel.period) + "s/" +
                 format_number(parallel.best_bound) + "s vs " +
                 format_number(milp.period) + "s/" +
                 format_number(milp.best_bound) + "s)"});
      }
      if (parallel.nodes != milp.nodes ||
          parallel.lp_iterations != milp.lp_iterations) {
        report.violations.push_back(
            {"differential",
             "milp with " + std::to_string(options.milp_threads) +
                 " threads explored a different tree (" +
                 std::to_string(parallel.nodes) + " nodes/" +
                 std::to_string(parallel.lp_iterations) + " pivots vs " +
                 std::to_string(milp.nodes) + "/" +
                 std::to_string(milp.lp_iterations) + ")"});
      }
    }
  }

  for (const char* name : {"greedy-mem", "greedy-cpu"}) {
    MapperOutcome outcome;
    outcome.name = name;
    outcome.mapping = mapping::run_heuristic(name, analysis);
    outcome.period = analysis.period(outcome.mapping);
    outcome.claims_feasible = false;  // memory-feasible only (Section 6.3)
    report.outcomes.push_back(std::move(outcome));
    // The admission criterion the greedies *do* promise is the local
    // store; breaking it is a heuristic bug, not a modeling gap.
    for (const Violation& v :
         check_local_store(analysis, report.outcomes.back().mapping)) {
      report.violations.push_back(
          {"differential",
           report.outcomes.back().name + ": " + v.detail});
    }
  }

  std::vector<Violation> rule_violations =
      check_outcomes(analysis, report.outcomes, options);
  report.violations.insert(report.violations.end(),
                           std::make_move_iterator(rule_violations.begin()),
                           std::make_move_iterator(rule_violations.end()));
  return report;
}

std::vector<Violation> check_fast_forward_equivalence(
    const SteadyStateAnalysis& analysis, const Mapping& mapping,
    const sim::SimOptions& base_options, bool* engaged) {
  CS_ENSURE(base_options.fault_plan == nullptr,
            "check_fast_forward_equivalence: a fault plan disables the "
            "fast-forward; the rule would be vacuous");
  std::vector<Violation> out;
  const auto add6 = [&out](std::string detail) {
    out.push_back({"differential-d6", std::move(detail)});
  };

  sim::SimOptions full_options = base_options;
  full_options.fast_forward = false;
  sim::SimOptions ff_options = base_options;
  ff_options.fast_forward = true;
  const sim::SimResult full = sim::simulate(analysis, mapping, full_options);
  const sim::SimResult ff = sim::simulate(analysis, mapping, ff_options);
  if (engaged != nullptr) *engaged = ff.fast_forward.engaged;

  // Every comparison below is *bitwise* (operator== on doubles): the
  // fast-forward promises a translation of the exact run, not a numeric
  // approximation of it.
  if (ff.completion_times != full.completion_times) {
    std::size_t first = 0;
    while (first < full.completion_times.size() &&
           ff.completion_times.size() > first &&
           ff.completion_times[first] == full.completion_times[first]) {
      ++first;
    }
    add6("fast-forwarded completion times diverge from the full run at "
         "instance " +
         std::to_string(first) + " (" +
         format_number(first < ff.completion_times.size()
                           ? ff.completion_times[first]
                           : -1.0) +
         "s vs " +
         format_number(first < full.completion_times.size()
                           ? full.completion_times[first]
                           : -1.0) +
         "s)");
  }
  if (ff.makespan != full.makespan ||
      ff.steady_throughput != full.steady_throughput) {
    add6("fast-forwarded aggregate stats differ: makespan " +
         format_number(ff.makespan) + "s vs " + format_number(full.makespan) +
         "s, steady throughput " + format_number(ff.steady_throughput) +
         "/s vs " + format_number(full.steady_throughput) + "/s");
  }
  if (ff.dma_transfers != full.dma_transfers) {
    add6("fast-forwarded transfer count differs: " +
         std::to_string(ff.dma_transfers) + " vs " +
         std::to_string(full.dma_transfers));
  }
  for (std::size_t pe = 0; pe < full.counters.pe.size(); ++pe) {
    if (ff.counters.pe[pe] != full.counters.pe[pe]) {
      add6("fast-forwarded telemetry counters differ on PE " +
           std::to_string(pe));
    }
  }
  if (ff.edge_produced != full.edge_produced ||
      ff.edge_delivered != full.edge_delivered) {
    add6("fast-forwarded per-edge totals differ from the full run");
  }
  // A traced jump writes the skipped cycles' events itself.
  if (ff.trace.size() != full.trace.size()) {
    add6("fast-forwarded trace holds " + std::to_string(ff.trace.size()) +
         " events, the full run's " + std::to_string(full.trace.size()));
  } else {
    for (std::size_t i = 0; i < full.trace.size(); ++i) {
      const obs::TraceEvent& a = ff.trace[i];
      const obs::TraceEvent& b = full.trace[i];
      if (!same_event(a, b)) {
        std::ostringstream os;
        os.precision(17);
        os << "fast-forwarded trace event " << i
           << " differs from the full run's: instance " << a.instance
           << " vs " << b.instance << ", window [" << a.start << ", "
           << a.end << "] s vs [" << b.start << ", " << b.end << "] s";
        add6(os.str());
        break;
      }
    }
  }

  // The simulated period can never beat the analytic steady-state bound
  // (the simulator only adds overheads the model ignores).
  if (ff.fast_forward.engaged && ff.fast_forward.model_period > 0.0 &&
      ff.fast_forward.period_ratio < 0.999) {
    add6("detected cycle beats the analytic period bound: ratio " +
         format_number(ff.fast_forward.period_ratio) + " (cycle " +
         format_number(ff.fast_forward.cycle_seconds) + "s / " +
         std::to_string(ff.fast_forward.cycle_instances) +
         " instances vs model period " +
         format_number(ff.fast_forward.model_period) + "s)");
  }
  return out;
}

std::string DifferentialReport::to_string() const {
  std::ostringstream os;
  os << outcomes.size() << " mappers cross-checked: "
     << (ok() ? "consistent"
              : std::to_string(violations.size()) + " violation(s)");
  for (const MapperOutcome& o : outcomes) {
    os << "\n  " << o.name << ": period " << format_number(o.period) << "s"
       << (o.optimal ? " (optimal within " +
                           format_number(o.claimed_gap * 100.0) + "%)"
                     : "");
  }
  for (const Violation& v : violations) {
    os << "\n  [" << v.invariant << "] " << v.detail;
  }
  return os.str();
}

}  // namespace cellstream::check
