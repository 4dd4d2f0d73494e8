// Reproduces the paper's Figure 6: throughput as a function of the number
// of processed instances, for random graph 1 (50 tasks, CCR 0.775) on a
// QS22 single Cell (1 PPE + 8 SPEs) under the LP mapping.
//
// Paper observations to match:
//   * steady state is reached after roughly 1000 instances,
//   * the steady-state experimental throughput is ~95 % of the throughput
//     predicted by the linear program.
//
// `--json [path]` additionally re-runs the simulation with the
// steady-state fast-forward disabled, checks both runs are bit-identical,
// and appends a "fig6" section (LP prediction, steady throughput, wall
// seconds full vs. fast-forward — target >= 20x) to BENCH_sim.json.

#include "bench_common.hpp"
#include "bench_json.hpp"

int main(int argc, char** argv) {
  using namespace cellstream;
  const std::string json_path = bench::json_output_path(argc, argv);
  bench::print_header("fig6_steady_state",
                      "Figure 6 (throughput vs. number of instances)");

  TaskGraph graph = gen::paper_graph(0);
  gen::set_ccr(graph, 0.775);
  const CellPlatform platform = platforms::qs22_single_cell();
  const SteadyStateAnalysis analysis(graph, platform);

  const mapping::MilpMapperResult lp =
      mapping::solve_optimal_mapping(analysis, bench::paper_milp_options());
  std::printf("LP mapping solved: status=%s gap=%.3f nodes=%zu (%.1fs)\n",
              milp::to_string(lp.status), lp.gap, lp.nodes, lp.solve_seconds);
  std::printf("Theoretical (LP-predicted) throughput: %.2f instances/s\n\n",
              lp.throughput);

  const std::size_t instances = bench::bench_instances(10000);
  bench::WallTimer timer;
  const sim::SimResult sim =
      sim::simulate(analysis, lp.mapping, bench::paper_sim_options(instances));
  const double ff_seconds = timer.seconds();

  report::Series theoretical{"theoretical_inst_per_s", {}};
  report::Series experimental{"experimental_inst_per_s", {}};
  const std::size_t window = std::min<std::size_t>(250, instances / 10 + 1);
  const std::size_t stride = std::max<std::size_t>(1, instances / 50);
  for (const auto& [instance, tput] :
       sim.counters.windowed_throughput(window, stride)) {
    theoretical.points.emplace_back(static_cast<double>(instance),
                                    lp.throughput);
    experimental.points.emplace_back(static_cast<double>(instance), tput);
  }
  std::printf("%s\n",
              report::render_series("instances", {theoretical, experimental})
                  .c_str());

  const double ratio = sim.steady_throughput / lp.throughput;
  std::printf("steady-state experimental throughput: %.2f instances/s\n",
              sim.steady_throughput);
  std::printf("fraction of LP prediction: %.1f%%  (paper: ~95%%)\n",
              100.0 * ratio);

  // Startup transient length: first instance index whose windowed
  // throughput reaches 90 % of steady state.
  for (const auto& [instance, tput] :
       sim.counters.windowed_throughput(window, 50)) {
    if (tput >= 0.9 * sim.steady_throughput) {
      std::printf("steady state reached after ~%zu instances (paper: ~1000)\n",
                  instance);
      break;
    }
  }

  if (!json_path.empty()) {
    // Same scenario with the fast-forward off: the wall-clock ratio is
    // the optimization's headline number, and the equality check is the
    // D6 soundness argument applied to the shipping configuration.
    sim::SimOptions full_options = bench::paper_sim_options(instances);
    full_options.fast_forward = false;
    timer.reset();
    const sim::SimResult full =
        sim::simulate(analysis, lp.mapping, full_options);
    const double full_seconds = timer.seconds();
    CS_ENSURE(full.makespan == sim.makespan &&
                  full.steady_throughput == sim.steady_throughput,
              "fig6: fast-forward run diverged from the full run");

    json::Value section = json::Value::object();
    section.set("schema", 1);
    section.set("instances", static_cast<std::uint64_t>(instances));
    section.set("lp_throughput", lp.throughput);
    section.set("steady_throughput", sim.steady_throughput);
    section.set("ratio_to_lp", ratio);
    section.set("full_seconds", full_seconds);
    section.set("ff_seconds", ff_seconds);
    section.set("ff_engaged", sim.fast_forward.engaged);
    section.set("ff_speedup",
                ff_seconds > 0.0 ? full_seconds / ff_seconds : 0.0);
    json::Value series = json::Value::array();
    for (const auto& [instance, tput] : experimental.points) {
      json::Value point = json::Value::object();
      point.set("instance", instance);
      point.set("instances_per_sec", tput);
      series.push_back(std::move(point));
    }
    section.set("experimental_series", std::move(series));
    bench::update_bench_json(json_path, "fig6", std::move(section));
    bench::check_bench_json(json_path, "fig6",
                            {"schema", "instances", "lp_throughput",
                             "full_seconds", "ff_seconds", "ff_speedup"});
    std::printf("\nfast-forward wall clock: full %.3fs vs ff %.3fs -> %.1fx "
                "(target >= 20x); wrote section \"fig6\" to %s\n",
                full_seconds, ff_seconds,
                ff_seconds > 0.0 ? full_seconds / ff_seconds : 0.0,
                json_path.c_str());
  }
  return 0;
}
