// Micro-benchmarks (google-benchmark) for the host runtime: paper graph 0
// (CCR 0.775) executed by runtime::run_stream with checksum task bodies of
// about 100 ns, on two GREEDYMEM mappings:
//   * 2 workers: QS22 with 1 SPE (one PPE and one SPE worker), the
//     mapping of perfbench's `stream` workload;
//   * 9 workers: QS22 with 8 SPEs, every PE a worker.
//
// `micro_runtime --json [path]` runs both mappings with the process pinned
// to 1, 2 and 4 cores and writes a "micro_runtime" section to
// BENCH_runtime.json by default.  Each row holds the median, minimum and
// maximum wall time over the repetitions, tasks/s and instances/s at the
// median, and the exact `tasks_executed` counter (instances x tasks, the
// same in every repetition).  The 7 repetitions interleave the rows so a
// slow phase of a shared host hits every configuration alike.
// CELLSTREAM_BENCH_INSTANCES sets the stream length (default 5000), so the
// bench-smoke ctest runs the same code path at a reduced scale.
//
// Without --json it runs BM_RunStream, an unpinned google-benchmark of the
// same two mappings, so the bench loop of run_all.sh (which runs every
// micro bench with --benchmark_min_time) exercises it without touching
// BENCH_runtime.json.

#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "runtime/host_runtime.hpp"

namespace {

using namespace cellstream;

/// One benchmarked configuration: paper graph 0 mapped by GREEDYMEM onto
/// QS22 with `spes` SPEs.
struct Setup {
  explicit Setup(std::size_t spes)
      : analysis(graph(), platforms::qs22_with_spes(spes)),
        mapping(mapping::greedy_mem(analysis)) {
    for (TaskId t = 0; t < analysis.graph().task_count(); ++t) {
      const std::size_t outputs = analysis.graph().out_edges(t).size();
      bodies.push_back([t, outputs](const runtime::TaskInputs& in) {
        std::uint64_t h = 1469598103934665603ull ^ t;
        h = (h ^ static_cast<std::uint64_t>(in.instance)) * 1099511628211ull;
        for (const auto& window : in.inputs) {
          for (const runtime::Packet* p : window) {
            if (p == nullptr) continue;
            for (const std::byte b : *p) {
              h = (h ^ static_cast<std::uint8_t>(b)) * 1099511628211ull;
            }
          }
        }
        runtime::Packet packet(sizeof h);
        std::memcpy(packet.data(), &h, sizeof h);
        return std::vector<runtime::Packet>(outputs, packet);
      });
    }
  }

  static TaskGraph graph() {
    TaskGraph g = gen::paper_graph(0);
    gen::set_ccr(g, 0.775);
    return g;
  }

  std::size_t workers() const {
    std::vector<bool> used(analysis.platform().pe_count(), false);
    for (TaskId t = 0; t < mapping.task_count(); ++t) used[mapping.pe_of(t)] = true;
    return static_cast<std::size_t>(std::count(used.begin(), used.end(), true));
  }

  runtime::RunStats run(std::int64_t instances) const {
    runtime::RunOptions options;
    options.instances = instances;
    return runtime::run_stream(analysis, mapping, bodies, options);
  }

  SteadyStateAnalysis analysis;
  Mapping mapping;
  std::vector<runtime::TaskFunction> bodies;
};

void BM_RunStream(benchmark::State& state) {
  const Setup setup(static_cast<std::size_t>(state.range(0)));
  const std::int64_t instances = 2000;
  for (auto _ : state) {
    const runtime::RunStats stats = setup.run(instances);
    benchmark::DoNotOptimize(stats.tasks_executed);
  }
  state.counters["workers"] = static_cast<double>(setup.workers());
  state.SetItemsProcessed(instances * static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RunStream)->Arg(1)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json mode
// ---------------------------------------------------------------------------

/// Pin the calling thread, and so the runtime workers it spawns (they
/// inherit its affinity), to the first `cores` CPUs of `allowed`.  Returns
/// how many CPUs the set holds (fewer than asked on a smaller host).
std::size_t pin(const cpu_set_t& allowed, std::size_t cores) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t pinned = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && pinned < cores; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &set);
    ++pinned;
  }
  CS_ENSURE(sched_setaffinity(0, sizeof set, &set) == 0,
            "bench: sched_setaffinity failed");
  return pinned;
}

struct Row {
  const char* name;
  const Setup* setup;
  std::size_t cores;
  std::size_t pinned = 0;
  std::vector<double> walls;
  std::uint64_t tasks_executed = 0;
  double compute_seconds = 0.0;  // summed over workers and repetitions
};

int run_json_mode(const std::string& path) {
  const auto instances =
      static_cast<std::int64_t>(bench::bench_instances(5000));
  const std::size_t reps = 7;
  cpu_set_t allowed;
  CS_ENSURE(sched_getaffinity(0, sizeof allowed, &allowed) == 0,
            "bench: sched_getaffinity failed");

  const Setup two(1);
  const Setup nine(8);
  std::vector<Row> rows;
  for (const Setup* setup : {&two, &nine}) {
    for (std::size_t cores : {1, 2, 4}) {
      rows.push_back({setup == &two ? "2-worker" : "9-worker", setup,
                      cores, 0, {}, 0, 0.0});
    }
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (Row& row : rows) {
      row.pinned = pin(allowed, row.cores);
      const runtime::RunStats stats = row.setup->run(instances);
      const std::uint64_t expected =
          static_cast<std::uint64_t>(instances) *
          row.setup->analysis.graph().task_count();
      CS_ENSURE(stats.tasks_executed == expected,
                "bench: run executed a wrong number of tasks");
      row.walls.push_back(stats.wall_seconds);
      row.tasks_executed = stats.tasks_executed;
      for (const obs::PeCounters& pe : stats.counters.pe) {
        row.compute_seconds += pe.compute_seconds;
      }
    }
  }
  CS_ENSURE(sched_setaffinity(0, sizeof allowed, &allowed) == 0,
            "bench: sched_setaffinity failed");

  json::Value section = json::Value::object();
  section.set("schema", 1);
  section.set("graph", "paper graph 0, CCR 0.775, GREEDYMEM");
  section.set("instances", instances);
  section.set("repetitions", static_cast<std::uint64_t>(reps));
  json::Value out_rows = json::Value::array();
  std::printf("%-9s %5s %5s %12s %14s %14s %10s\n", "mapping", "cores",
              "pinned", "median_s", "tasks/s", "instances/s", "busy");
  for (Row& row : rows) {
    double wall_total = 0.0;
    for (double w : row.walls) wall_total += w;
    std::sort(row.walls.begin(), row.walls.end());
    const double median = row.walls[row.walls.size() / 2];
    const std::size_t workers = row.setup->workers();
    // Running share: the workers' awake (task-running) time over their
    // wall time; the rest they slept.
    const double busy =
        row.compute_seconds / (static_cast<double>(workers) * wall_total);
    json::Value r = json::Value::object();
    r.set("mapping", row.name);
    r.set("workers", static_cast<std::uint64_t>(workers));
    r.set("cores", static_cast<std::uint64_t>(row.cores));
    r.set("cores_pinned", static_cast<std::uint64_t>(row.pinned));
    r.set("tasks_executed", row.tasks_executed);
    r.set("wall_seconds", median);
    r.set("wall_seconds_min", row.walls.front());
    r.set("wall_seconds_max", row.walls.back());
    r.set("tasks_per_sec", static_cast<double>(row.tasks_executed) / median);
    r.set("instances_per_sec", static_cast<double>(instances) / median);
    r.set("busy_share", busy);
    out_rows.push_back(std::move(r));
    std::printf("%-9s %5zu %6zu %12.4f %14.0f %14.0f %10.3f\n", row.name,
                row.cores, row.pinned, median,
                static_cast<double>(row.tasks_executed) / median,
                static_cast<double>(instances) / median, busy);
  }
  section.set("rows", std::move(out_rows));

  bench::update_bench_json(path, "micro_runtime", std::move(section));
  bench::check_bench_json(path, "micro_runtime",
                          {"schema", "instances", "repetitions", "rows"});
  std::printf("wrote section \"micro_runtime\" to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = cellstream::bench::json_output_path(
      argc, argv, "BENCH_runtime.json");
  if (!json_path.empty()) {
    try {
      return run_json_mode(json_path);
    } catch (const cellstream::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
