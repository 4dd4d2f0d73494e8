// Command-line front end over the library — the workflow a downstream
// user scripts against:
//
//   cellstream_cli generate 40 7 1.5            > app.graph
//   cellstream_cli info     app.graph
//   cellstream_cli solve    app.graph milp 8    > app.mapping
//   cellstream_cli simulate app.graph app.mapping 5000
//
// Graphs and mappings are the library's plain-text formats (TaskGraph /
// Mapping to_text), so artifacts are diffable and versionable.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "fault/failover.hpp"
#include "fault/fault_plan.hpp"
#include "gen/daggen.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "report/stats_io.hpp"
#include "support/json.hpp"
#include "support/parse.hpp"
#include "support/strings.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/annealing.hpp"
#include "mapping/local_search.hpp"
#include "mapping/milp_mapper.hpp"
#include "runtime/host_runtime.hpp"
#include "schedule/periodic_schedule.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cellstream;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  CS_ENSURE(in.good(), "cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cellstream_cli generate <tasks> <seed> [ccr]\n"
               "  cellstream_cli info     <graph-file>\n"
               "  cellstream_cli solve    <graph-file> <strategy> [spes] "
               "[threads]\n"
               "      strategy: milp | greedy-mem | greedy-cpu | "
               "greedy-period | local-search | annealing | round-robin |\n"
               "                ppe-only\n"
               "      threads:  milp only; node-LP workers (0 = all cores;"
               " the result is identical for every value)\n"
               "  cellstream_cli simulate <graph-file> <mapping-file> "
               "[instances] [trace.json]\n"
               "  cellstream_cli run      <graph-file> <mapping-file> "
               "[instances]\n"
               "      execute the stream on host threads (synthetic checksum "
               "task\n"
               "      bodies) and check end-to-end stream integrity "
               "(invariant I8)\n"
               "  cellstream_cli schedule <graph-file> <mapping-file>\n"
               "  cellstream_cli check    <graph-file> <mapping-file> "
               "[instances]\n"
               "  cellstream_cli stats    <graph-file> <mapping-file> "
               "[instances] [json|csv] [--validate]\n"
               "      simulate and print the telemetry report "
               "(docs/OBSERVABILITY.md);\n"
               "      --validate: schema-check the emitted JSON and require "
               "the\n"
               "      predicted-vs-observed cross-check (invariant I7) to "
               "pass\n"
               "fault injection (simulate, run, stats; docs/ROBUSTNESS.md):\n"
               "  --fault-plan <seed-or-file>   deterministic fault scenario:"
               " a\n"
               "      decimal seed derives a random plan "
               "(fault::FaultPlan::random),\n"
               "      anything else is read as a serialized plan file\n"
               "  --failover <strategy>         remap strategy after a "
               "fail-stop:\n"
               "      greedy-mem (default) | greedy-cpu | milp "
               "(simulate/stats only)\n");
  return 2;
}

/// --fault-plan argument: a bare decimal number derives a seeded random
/// plan for this platform/stream; anything else names a plan file
/// (fault::FaultPlan::to_text format).
fault::FaultPlan parse_fault_plan(const std::string& spec,
                                  const CellPlatform& platform,
                                  std::int64_t instances) {
  bool numeric = !spec.empty();
  for (const char c : spec) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) numeric = false;
  }
  fault::FaultPlan plan =
      numeric ? fault::FaultPlan::random(
                    parse_u64(spec, "fault-plan seed"), platform, instances)
              : fault::FaultPlan::from_text(read_file(spec));
  plan.validate(platform);
  return plan;
}

/// Split `argv[first..)` into flag values and positional arguments.
struct CliArgs {
  std::vector<std::string> positional;
  std::string fault_plan;  ///< --fault-plan value ("" when absent)
  mapping::RemapStrategy failover = mapping::RemapStrategy::kGreedyMem;
  bool validate = false;
};

CliArgs parse_args(int argc, char** argv, int first) {
  CliArgs args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate") {
      args.validate = true;
    } else if (arg == "--fault-plan" || arg == "--failover") {
      CS_ENSURE(i + 1 < argc, arg + ": missing value");
      if (arg == "--fault-plan") {
        args.fault_plan = argv[++i];
      } else {
        args.failover = mapping::parse_remap_strategy(argv[++i]);
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

void print_fault_summary(const obs::FaultStats& faults) {
  std::printf("dma retries:        %lld (%.3f ms backoff)\n",
              static_cast<long long>(faults.dma_retries),
              faults.backoff_seconds * 1e3);
  std::printf("slowdown injected:  %.3f ms, hangs: %lld (%.3f ms)\n",
              faults.slowdown_seconds * 1e3,
              static_cast<long long>(faults.hangs),
              faults.hang_seconds * 1e3);
  if (faults.failovers > 0) {
    std::printf("failover:           PE %lld lost at instance %lld\n",
                static_cast<long long>(faults.failed_pe),
                static_cast<long long>(faults.fail_instance));
    std::printf("                    %lld task(s) migrated (%s), "
                "downtime %.3f ms\n",
                static_cast<long long>(faults.migrated_tasks),
                format_bytes(faults.migrated_bytes).c_str(),
                faults.downtime_seconds * 1e3);
  }
}

int cmd_generate(int argc, char** argv) {
  if (argc < 4) return usage();
  gen::DagGenParams params;
  params.task_count = static_cast<std::size_t>(parse_u64(argv[2], "tasks"));
  params.seed = parse_u64(argv[3], "seed");
  TaskGraph graph = gen::daggen_random(params);
  if (argc > 4) gen::set_ccr(graph, parse_non_negative_double(argv[4], "ccr"));
  std::fputs(graph.to_text().c_str(), stdout);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return usage();
  const TaskGraph graph = TaskGraph::from_text(read_file(argv[2]));
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  std::printf("graph:   %s\n", graph.name().c_str());
  std::printf("tasks:   %zu (depth %zu)\n", graph.task_count(), graph.depth());
  std::printf("edges:   %zu\n", graph.edge_count());
  std::printf("work:    %.3f ms/instance on PPE, %.3f ms on SPEs\n",
              graph.total_wppe() * 1e3, graph.total_wspe() * 1e3);
  std::printf("data:    %s/instance, CCR %.3g\n",
              format_bytes(graph.total_data_bytes()).c_str(),
              graph.ccr(gen::kPaperOpsRate));
  std::printf("ppe-only throughput: %.2f instances/s\n",
              analysis.throughput(ppe_only_mapping(graph)));
  return 0;
}

int cmd_solve(int argc, char** argv) {
  if (argc < 4) return usage();
  const TaskGraph graph = TaskGraph::from_text(read_file(argv[2]));
  const std::string strategy = argv[3];
  const std::size_t spes =
      argc > 4 ? static_cast<std::size_t>(parse_u64(argv[4], "spes")) : 8;
  const CellPlatform platform = platforms::qs22_with_spes(spes);
  const SteadyStateAnalysis analysis(graph, platform);

  Mapping mapping;
  if (strategy == "milp") {
    mapping::MilpMapperOptions milp_options;
    if (argc > 5) {
      milp_options.with_threads(
          static_cast<std::size_t>(parse_u64(argv[5], "threads")));
    }
    const mapping::MilpMapperResult r =
        mapping::solve_optimal_mapping(analysis, milp_options);
    const milp::SearchStats& s = r.stats;
    const std::size_t starts = s.warm_start_hits + s.warm_start_misses;
    std::fprintf(stderr, "milp: %s, gap %.3f, %zu nodes, %.2fs\n",
                 milp::to_string(r.status), r.gap, r.nodes, r.solve_seconds);
    std::fprintf(stderr,
                 "milp: %zu rounds on %zu thread(s), %zu pivots "
                 "(%zu phase-1), warm-start rate %.0f%%\n",
                 s.rounds, s.threads_used, s.lp_iterations,
                 s.phase1_iterations,
                 starts != 0
                     ? 100.0 * static_cast<double>(s.warm_start_hits) /
                           static_cast<double>(starts)
                     : 0.0);
    std::fprintf(stderr,
                 "milp: %zu pruned, %zu integral leaves, %zu infeasible, "
                 "callback %zu/%zu accepted, peak open list %zu\n",
                 s.pruned_by_bound, s.integral_leaves, s.infeasible_nodes,
                 s.callback_accepted, s.callback_candidates, s.max_open_size);
    std::fprintf(stderr,
                 "milp: local search considered %zu mappings, evaluated "
                 "%zu in %.2fs, %zu proxy-slot cuts\n",
                 r.mapping_candidates, r.mapping_evaluations,
                 r.polish_seconds, r.proxy_cuts);
    mapping = r.mapping;
  } else if (strategy == "local-search") {
    mapping = mapping::local_search_heuristic(analysis);
  } else if (strategy == "annealing") {
    mapping = mapping::annealing_heuristic(analysis);
  } else {
    mapping = mapping::run_heuristic(strategy, analysis);
  }
  std::fprintf(stderr, "throughput: %.2f instances/s (%s)\n",
               analysis.throughput(mapping),
               analysis.feasible(mapping) ? "feasible" : "INFEASIBLE");
  std::fputs(mapping.to_text().c_str(), stdout);
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  const CliArgs args = parse_args(argc, argv, 2);
  if (args.positional.size() < 2) return usage();
  const TaskGraph graph = TaskGraph::from_text(read_file(args.positional[0]));
  const Mapping mapping = Mapping::from_text(read_file(args.positional[1]));
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  sim::SimOptions options;
  if (args.positional.size() > 2) {
    options.instances =
        static_cast<std::size_t>(parse_u64(args.positional[2], "instances"));
  }
  const char* trace_path =
      args.positional.size() > 3 ? args.positional[3].c_str() : nullptr;
  options.record_trace = trace_path != nullptr;

  int rc = 0;
  sim::SimResult run;
  std::vector<obs::TraceEvent> trace;
  double predicted = analysis.throughput(mapping);
  if (!args.fault_plan.empty()) {
    // Faulted run: delegate to the failover coordinator (handles both
    // transient-only plans and the drain -> remap -> resume split), then
    // hold the outcome to the full oracle — I1-I7 per phase, I8 stream
    // integrity, I9 degraded-mapping conformance.
    const fault::FaultPlan plan = parse_fault_plan(
        args.fault_plan, analysis.platform(),
        static_cast<std::int64_t>(options.instances));
    fault::FailoverOptions fopts;
    fopts.sim = options;
    fopts.sim.record_trace = true;  // the oracle's trace checks need it
    fopts.strategy = args.failover;
    const fault::FailoverOutcome outcome =
        fault::run_with_failover(analysis, mapping, plan, fopts);
    run = outcome.result;
    if (trace_path != nullptr) trace = fault::stitched_trace(outcome);
    if (outcome.failover_performed) predicted = outcome.predicted_post_throughput;
    print_fault_summary(run.faults);
    const check::InvariantReport oracle =
        check::check_failover_invariants(analysis, outcome);
    std::printf("invariants:         %s\n",
                oracle.ok() ? "I1-I9 green" : "VIOLATED");
    if (!oracle.ok()) {
      std::fprintf(stderr, "%s\n", oracle.to_string().c_str());
      rc = 1;
    }
  } else {
    run = sim::simulate(analysis, mapping, options);
    trace = std::move(run.trace);
  }
  if (trace_path != nullptr) {
    std::ofstream trace_out(trace_path);
    CS_ENSURE(trace_out.good(), "cannot write trace file");
    obs::write_chrome_trace(trace_out, trace, graph, analysis.platform());
    std::fprintf(stderr, "trace written to %s (open in chrome://tracing)\n",
                 trace_path);
  }
  std::printf("instances:          %zu\n", options.instances);
  std::printf("makespan:           %.3f s\n", run.makespan);
  std::printf("steady throughput:  %.2f instances/s\n", run.steady_throughput);
  std::printf("predicted:          %.2f instances/s (%.1f%% achieved)\n",
              predicted, 100.0 * run.steady_throughput / predicted);
  std::printf("dma transfers:      %llu\n",
              static_cast<unsigned long long>(run.dma_transfers));
  return rc;
}

/// Synthetic task bodies for `cellstream_cli run`: every task emits one
/// 8-byte packet per output edge carrying an FNV-1a checksum of its
/// identity, the instance index and every input packet — so any routing,
/// ordering or loss bug upstream changes the bytes that arrive downstream,
/// and the end-to-end accounting (I8) is backed by real data movement.
std::vector<runtime::TaskFunction> checksum_bodies(const TaskGraph& graph) {
  std::vector<runtime::TaskFunction> bodies;
  bodies.reserve(graph.task_count());
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    const std::size_t outputs = graph.out_edges(t).size();
    bodies.push_back([t, outputs](const runtime::TaskInputs& in) {
      std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
      const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
          h ^= (v >> (8 * b)) & 0xffu;
          h *= 1099511628211ull;  // FNV prime
        }
      };
      mix(static_cast<std::uint64_t>(t));
      mix(static_cast<std::uint64_t>(in.instance));
      for (const auto& edge_inputs : in.inputs) {
        for (const runtime::Packet* p : edge_inputs) {
          if (p == nullptr) continue;
          for (const std::byte byte : *p) {
            h ^= static_cast<std::uint64_t>(byte);
            h *= 1099511628211ull;
          }
        }
      }
      std::vector<runtime::Packet> out(outputs);
      for (runtime::Packet& p : out) {
        p.resize(sizeof h);
        std::memcpy(p.data(), &h, sizeof h);
      }
      return out;
    });
  }
  return bodies;
}

int cmd_run(int argc, char** argv) {
  const CliArgs args = parse_args(argc, argv, 2);
  // The host runtime never waits on a solver (runtime::RunOptions).
  CS_ENSURE(args.failover != mapping::RemapStrategy::kMilp,
            "--failover: invalid strategy 'milp' for run (greedy-mem | "
            "greedy-cpu; milp is simulate/stats only)");
  if (args.positional.size() < 2) return usage();
  const TaskGraph graph = TaskGraph::from_text(read_file(args.positional[0]));
  const Mapping mapping = Mapping::from_text(read_file(args.positional[1]));
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());

  runtime::RunOptions options;
  if (args.positional.size() > 2) {
    options.instances =
        static_cast<std::int64_t>(parse_u64(args.positional[2], "instances"));
  }
  options.failover_strategy = args.failover;
  fault::FaultPlan plan;
  if (!args.fault_plan.empty()) {
    plan = parse_fault_plan(args.fault_plan, analysis.platform(),
                            options.instances);
    options.fault_plan = &plan;
  }

  const runtime::RunStats stats =
      runtime::run_stream(analysis, mapping, checksum_bodies(graph), options);
  std::printf("instances:          %lld\n",
              static_cast<long long>(options.instances));
  std::printf("wall time:          %.3f s\n", stats.wall_seconds);
  std::printf("throughput:         %.2f instances/s (wall)\n",
              stats.counters.observed_throughput());
  std::printf("tasks executed:     %llu\n",
              static_cast<unsigned long long>(stats.tasks_executed));
  if (options.fault_plan != nullptr) print_fault_summary(stats.faults);

  // I8: the stream must arrive whole — every instance completed exactly
  // once, every edge's packets produced and retired exactly N times.
  const std::vector<check::Violation> violations = check::check_stream_integrity(
      graph, check::accounting_of(stats), options.instances);
  std::printf("stream integrity:   %s\n",
              violations.empty() ? "I8 green" : "VIOLATED");
  for (const check::Violation& v : violations) {
    std::fprintf(stderr, "I8: %s\n", v.detail.c_str());
  }
  return violations.empty() ? 0 : 1;
}

int cmd_schedule(int argc, char** argv) {
  if (argc < 4) return usage();
  const TaskGraph graph = TaskGraph::from_text(read_file(argv[2]));
  const Mapping mapping = Mapping::from_text(read_file(argv[3]));
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const schedule::PeriodicSchedule sched(analysis, mapping);
  sched.validate();
  std::fputs(sched.to_text().c_str(), stdout);
  std::printf("\n%s", sched.to_gantt(4, 72).c_str());
  return 0;
}

int cmd_check(int argc, char** argv) {
  if (argc < 4) return usage();
  const TaskGraph graph = TaskGraph::from_text(read_file(argv[2]));
  const Mapping mapping = Mapping::from_text(read_file(argv[3]));
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  sim::SimOptions options;
  if (argc > 4) {
    options.instances = static_cast<std::size_t>(parse_u64(argv[4], "instances"));
  }
  options.record_trace = true;
  const sim::SimResult run = sim::simulate(analysis, mapping, options);
  const check::InvariantReport report =
      check::check_invariants(analysis, mapping, run);
  std::printf("%s\n", report.to_string().c_str());
  return report.ok() ? 0 : 1;
}

int cmd_stats(int argc, char** argv) {
  const CliArgs args = parse_args(argc, argv, 2);
  const bool validate = args.validate;
  const std::vector<std::string>& positional = args.positional;
  if (positional.size() < 2) return usage();
  const TaskGraph graph = TaskGraph::from_text(read_file(positional[0]));
  const Mapping mapping = Mapping::from_text(read_file(positional[1]));
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  sim::SimOptions options;
  if (positional.size() > 2) {
    options.instances =
        static_cast<std::size_t>(parse_u64(positional[2], "instances"));
  }
  const std::string format = positional.size() > 3 ? positional[3] : "json";
  CS_ENSURE(format == "json" || format == "csv",
            "stats: unknown format '" + format + "' (json or csv)");

  obs::Report report;
  if (!args.fault_plan.empty()) {
    // Faulted run: the occupation table and cross-check cover the *final*
    // phase against the mapping it executed (post-failover, that is the
    // reduced-platform steady state — invariant I9's view); the faults
    // section carries the whole run's counters.
    const fault::FaultPlan plan = parse_fault_plan(
        args.fault_plan, analysis.platform(),
        static_cast<std::int64_t>(options.instances));
    fault::FailoverOptions fopts;
    fopts.sim = options;
    fopts.strategy = args.failover;
    const fault::FailoverOutcome outcome =
        fault::run_with_failover(analysis, mapping, plan, fopts);
    report = obs::build_report(analysis, outcome.phase_mappings.back(),
                               outcome.phases.back().counters);
    report.faults = outcome.result.faults;
    if (outcome.failover_performed) {
      report.predicted_post_throughput = outcome.predicted_post_throughput;
    }
  } else {
    const sim::SimResult run = sim::simulate(analysis, mapping, options);
    report = obs::build_report(analysis, mapping, run.counters);
  }
  const std::string json_text = report::stats_json(report);
  std::fputs(format == "csv" ? report::stats_csv(report).c_str()
                             : json_text.c_str(),
             stdout);

  int rc = 0;
  if (validate) {
    // Round-trip the emitted JSON through the parser and the schema
    // checker, then require the I7 cross-check verdict to be green.
    const json::Value document = json::Value::parse(json_text);
    for (const std::string& problem :
         report::validate_stats_json(document)) {
      std::fprintf(stderr, "schema: %s\n", problem.c_str());
      rc = 1;
    }
    if (!report.crosscheck_applicable) {
      std::fprintf(stderr, "crosscheck: not applicable (no instances?)\n");
      rc = 1;
    } else if (!report.crosscheck_ok()) {
      for (const std::string& detail : report.flagged) {
        std::fprintf(stderr, "crosscheck: %s\n", detail.c_str());
      }
      rc = 1;
    }
    std::fprintf(stderr, "stats: %s\n", rc == 0 ? "valid, cross-check OK"
                                                : "FAILED validation");
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "info") return cmd_info(argc, argv);
    if (command == "solve") return cmd_solve(argc, argv);
    if (command == "simulate") return cmd_simulate(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "schedule") return cmd_schedule(argc, argv);
    if (command == "check") return cmd_check(argc, argv);
    if (command == "stats") return cmd_stats(argc, argv);
    return usage();
  } catch (const cellstream::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
