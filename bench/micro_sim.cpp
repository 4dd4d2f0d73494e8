// Micro-benchmarks (google-benchmark) for the simulation substrates: the
// discrete-event engine, the max-min fair flow network, and end-to-end
// Cell simulation throughput (simulated instances per wall second).
//
// `micro_sim --json [path]` switches to a machine-readable mode that
// measures three headline numbers and appends a "micro_sim" section to
// the shared bench document (BENCH_sim.json by default):
//   * engine events/sec of the pooled event core, on a steady event chain
//     and under cancel churn,
//   * the flow layer on a simulator-shaped transfer chain: transfers,
//     max-min recomputations and heap allocations per transfer (0 once
//     warm; this binary counts every allocation), and transfers/sec,
//   * simulated instances/sec with the steady-state fast-forward off
//     vs. on (results must stay bit-identical),
//   * batched scenario sweep, serial vs. thread pool (results must be
//     byte-identical at any thread count),
//   * the invariant oracle (check_invariants, I1-I8 with the trace
//     replay) on a traced 5000-instance run, best of 5, with the bytes
//     the trace holds.
// Scales honor CELLSTREAM_BENCH_EVENTS / CELLSTREAM_BENCH_INSTANCES so
// the bench-smoke ctest can run a reduced version of the same code path.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "check/invariants.hpp"
#include "des/engine.hpp"
#include "des/flow_network.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "sim/batch.hpp"
#include "sim/simulator.hpp"

// Every allocation of this binary is counted, so the flow entry can
// report the allocations of its measured phase.  Kept out of line, so the
// compiler does not pair an inlined free() with operator new.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace cellstream;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Engine engine;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_FlowNetworkChurn(benchmark::State& state) {
  // Repeatedly run batches of transfers through a 10-node network.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Engine engine;
    std::vector<double> caps(10, 100.0);
    des::FlowNetwork net(engine, caps, caps);
    std::size_t done = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t src = i % 9;
      const std::size_t dst = (src + 1 + i % 5) % 10;  // never src
      net.start_transfer(src, dst, 50.0, [&done] { ++done; });
    }
    engine.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowNetworkChurn)->Arg(64)->Arg(512);

void BM_CellSimulation(benchmark::State& state) {
  gen::DagGenParams params;
  params.task_count = static_cast<std::size_t>(state.range(0));
  params.seed = 13;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 0.775);
  const SteadyStateAnalysis analysis(std::move(graph),
                                     platforms::qs22_single_cell());
  const Mapping m = mapping::greedy_cpu(analysis);
  sim::SimOptions options;
  options.instances = 1000;
  for (auto _ : state) {
    const sim::SimResult r = sim::simulate(analysis, m, options);
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(options.instances) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CellSimulation)->Arg(20)->Arg(50)->Arg(94)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json mode
// ---------------------------------------------------------------------------

// The simulator's hot-path pattern, distilled: a shallow self-sustaining
// chain (each fired event schedules its successor, like a PE's next
// communication/computation phase) plus `Watchdogs` timers per event that
// are scheduled far ahead and cancelled (like the retry/backoff timers
// fault runs reschedule constantly).  The closure is ~40 bytes, inside
// des::InlineAction's inline buffer, so scheduling stays allocation-free
// and the cancelled timers exercise the tombstone compaction.
template <int Watchdogs>
struct ChainEvent {
  des::Engine* engine = nullptr;
  std::uint64_t* remaining = nullptr;
  std::uint64_t* sink = nullptr;
  double at = 0.0;
  std::uint64_t salt = 0;
  void operator()() const {
    *sink += salt;
    if (*remaining == 0) return;
    --*remaining;
    ChainEvent next = *this;
    next.at = at + static_cast<double>(salt % 7 + 1);
    next.salt = salt * 2654435761u % 971;
    engine->schedule_at(next.at, next);
    for (int w = 0; w < Watchdogs; ++w) {
      engine->cancel(engine->schedule_at(next.at + 1e6 + w, next));
    }
  }
};

// Run `events` chained events through 64 concurrent chains; returns the
// best events/sec over `reps` runs.
template <int Watchdogs>
double engine_events_per_sec(std::size_t events, int reps) {
  constexpr std::size_t kChains = 64;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t sink = 0;
    std::uint64_t remaining = events > kChains ? events - kChains : 0;
    des::Engine engine;
    const bench::WallTimer timer;
    for (std::size_t i = 0; i < kChains; ++i) {
      ChainEvent<Watchdogs> seed;
      seed.engine = &engine;
      seed.remaining = &remaining;
      seed.sink = &sink;
      seed.at = static_cast<double>(i % 7);
      seed.salt = i + 1;
      engine.schedule_at(seed.at, seed);
    }
    engine.run();
    const double seconds = timer.seconds();
    benchmark::DoNotOptimize(sink);
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(events) / seconds);
    }
  }
  return best;
}

// The simulator's transfer mix on a dual-Cell-shaped flow network: 18 PE
// nodes and main memory (infinite ports), one link resource per chip and
// direction.  `kLanes` transfers are in flight at once; each completion
// starts its lane's next transfer, a memory read or write, a PE-to-PE
// fetch, or a cross-chip fetch over four resources.
struct FlowChain {
  static constexpr std::size_t kPes = 18;
  static constexpr std::size_t kLanes = 24;
  des::FlowNetwork* net = nullptr;
  des::ResourceId links[4] = {};  // chip 0 out, chip 0 in, chip 1 out, in
  std::uint64_t started = 0;
  std::uint64_t budget = 0;

  void start(std::size_t lane) {
    if (started == budget) return;
    const std::uint64_t k = started++;
    des::InlineAction done = [this, lane] { start(lane); };
    const std::size_t pe = (lane * 7 + k) % kPes;
    const std::size_t other = (pe + 1 + k % 5) % kPes;
    const double bytes = 2048.0 * static_cast<double>(1 + k % 4);
    switch (k % 4) {
      case 0: net->start_transfer(kPes, pe, bytes, std::move(done)); break;
      case 1: net->start_transfer(pe, kPes, bytes, std::move(done)); break;
      case 2: net->start_transfer(other, pe, bytes, std::move(done)); break;
      default: {
        const std::size_t from_chip = other < kPes / 2 ? 0 : 1;
        net->start_transfer_over(
            {net->out_port(other), links[2 * from_chip],
             links[2 * (1 - from_chip) + 1], net->in_port(pe)},
            bytes, std::move(done));
      }
    }
  }

  void run(des::Engine& engine, std::uint64_t transfers) {
    budget += transfers;
    for (std::size_t lane = 0; lane < kLanes; ++lane) start(lane);
    engine.run();
  }
};

json::Value flow_workload(std::size_t transfers) {
  des::Engine engine;
  std::vector<double> caps(FlowChain::kPes + 1, 25.6);  // bytes per tick
  caps.back() = des::FlowNetwork::infinity();            // main memory
  des::FlowNetwork net(engine, caps, caps);
  net.set_time_quantum(1.0);
  FlowChain chain;
  chain.net = &net;
  for (des::ResourceId& link : chain.links) link = net.add_resource(20.0);
  chain.run(engine, transfers / 10 + 1000);  // warm-up: pools at their peak
  const std::uint64_t recomputations_before = net.recomputations();
  const std::uint64_t allocations_before = g_allocations.load();
  const std::uint64_t started = chain.started;
  const bench::WallTimer timer;
  chain.run(engine, transfers);
  const double seconds = timer.seconds();
  const std::uint64_t allocations = g_allocations.load() - allocations_before;
  const std::uint64_t recomputations =
      net.recomputations() - recomputations_before;
  const std::uint64_t measured = chain.started - started;
  const double per_transfer = 1.0 / static_cast<double>(measured);
  const double per_sec =
      seconds > 0.0 ? static_cast<double>(measured) / seconds : 0.0;
  json::Value row = json::Value::object();
  row.set("transfers", measured);
  row.set("recomputations", recomputations);
  row.set("allocations_per_transfer",
          static_cast<double>(allocations) * per_transfer);
  row.set("transfers_per_sec", per_sec);
  std::printf("flow: %llu transfers, %.3g transfers/s, %.2f recomputations "
              "and %.3g allocations per transfer\n",
              static_cast<unsigned long long>(measured), per_sec,
              static_cast<double>(recomputations) * per_transfer,
              static_cast<double>(allocations) * per_transfer);
  return row;
}

// One steady/churn measurement as a JSON object (best of 4 runs).
template <int Watchdogs>
json::Value engine_workload(std::size_t events) {
  const double per_sec = engine_events_per_sec<Watchdogs>(events, 4);
  std::printf("engine, %d cancelled timers per event: %.3g events/s\n",
              Watchdogs, per_sec);
  json::Value row = json::Value::object();
  row.set("cancelled_timers_per_event", Watchdogs);
  row.set("events_per_sec", per_sec);
  return row;
}

int run_json_mode(const std::string& path) {
  json::Value section = json::Value::object();
  section.set("schema", 1);

  // -- engine: the pooled event core ---------------------------------------
  // Two workloads: "steady" is the pure event chain, "churn" adds the
  // fault-mode cancel pressure the pooled slots and lazy tombstone
  // compaction were built for.
  const std::size_t events = bench::env_size("CELLSTREAM_BENCH_EVENTS",
                                             1000000);
  json::Value engine = json::Value::object();
  engine.set("events", static_cast<std::uint64_t>(events));
  engine.set("steady", engine_workload<0>(events));
  engine.set("churn", engine_workload<4>(events));
  section.set("engine", std::move(engine));

  // -- flow: the max-min flow layer on the simulator's transfer mix -------
  section.set("flow", flow_workload(events / 5));

  // -- simulation: fast-forward off vs. on ---------------------------------
  TaskGraph graph = gen::paper_graph(0);
  gen::set_ccr(graph, 0.775);
  const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
  const Mapping m = mapping::greedy_cpu(analysis);
  const std::size_t instances = bench::bench_instances(10000);

  sim::SimOptions full_options = bench::paper_sim_options(instances);
  full_options.fast_forward = false;
  bench::WallTimer timer;
  const sim::SimResult full = sim::simulate(analysis, m, full_options);
  const double full_seconds = timer.seconds();

  sim::SimOptions ff_options = bench::paper_sim_options(instances);
  timer.reset();
  const sim::SimResult ff = sim::simulate(analysis, m, ff_options);
  const double ff_seconds = timer.seconds();

  CS_ENSURE(full.makespan == ff.makespan &&
                full.steady_throughput == ff.steady_throughput,
            "bench: fast-forward run diverged from the full run");
  json::Value simulation = json::Value::object();
  simulation.set("instances", static_cast<std::uint64_t>(instances));
  simulation.set("full_seconds", full_seconds);
  simulation.set("full_instances_per_sec",
                 full_seconds > 0.0 ? instances / full_seconds : 0.0);
  simulation.set("ff_seconds", ff_seconds);
  simulation.set("ff_instances_per_sec",
                 ff_seconds > 0.0 ? instances / ff_seconds : 0.0);
  simulation.set("ff_engaged", ff.fast_forward.engaged);
  simulation.set("ff_skipped_instances",
                 static_cast<std::int64_t>(ff.fast_forward.skipped_instances));
  simulation.set("ff_speedup",
                 ff_seconds > 0.0 ? full_seconds / ff_seconds : 0.0);
  section.set("simulation", std::move(simulation));
  std::printf("simulation: %zu instances, full %.3fs, fast-forward %.3fs "
              "(engaged=%d, %.1fx)\n",
              instances, full_seconds, ff_seconds,
              ff.fast_forward.engaged ? 1 : 0,
              ff_seconds > 0.0 ? full_seconds / ff_seconds : 0.0);

  // -- oracle: check_invariants on a traced run ----------------------------
  // The same graph and mapping with a full trace, so the I4-I6 replay runs;
  // the run is clean, so any violation is an oracle (or simulator) fault.
  // The run fast-forwards: its jump writes the skipped cycles' events.
  sim::SimOptions traced_options =
      bench::paper_sim_options(std::min<std::size_t>(instances, 5000));
  traced_options.record_trace = true;
  timer.reset();
  const sim::SimResult traced = sim::simulate(analysis, m, traced_options);
  const double traced_seconds = timer.seconds();
  check::InvariantReport report;
  double check_seconds = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    timer.reset();
    report = check::check_invariants(analysis, m, traced);
    const double seconds = timer.seconds();
    if (rep == 0 || seconds < check_seconds) check_seconds = seconds;
  }
  CS_ENSURE(report.ok(),
            "bench: the oracle flagged a clean run: " + report.to_string());
  json::Value oracle = json::Value::object();
  oracle.set("instances",
             static_cast<std::uint64_t>(traced_options.instances));
  oracle.set("trace_events",
             static_cast<std::uint64_t>(report.trace_events_seen));
  // The trace's exact footprint: the simulator reserves one event per
  // task and per channel and instance, so there is no growth slack.
  oracle.set("trace_bytes",
             static_cast<std::uint64_t>(traced.trace.capacity() *
                                        sizeof(obs::TraceEvent)));
  oracle.set("violations",
             static_cast<std::uint64_t>(report.violations.size()));
  // Runs the replay had to sort: 0 while the simulator emits each queue,
  // sequence and PE in order, so a change to its emission order shows here.
  oracle.set("replay_sorts", static_cast<std::uint64_t>(report.replay_sorts));
  // Instances the traced run skipped, exact: 0 would mean a trace turned
  // the fast-forward off again.
  oracle.set("ff_skipped_instances",
             static_cast<std::int64_t>(traced.fast_forward.skipped_instances));
  oracle.set("simulate_seconds", traced_seconds);
  oracle.set("check_seconds", check_seconds);
  oracle.set("check_events_per_sec",
             check_seconds > 0.0 ? report.trace_events_seen / check_seconds
                                 : 0.0);
  section.set("oracle", std::move(oracle));
  std::printf("oracle: %zu instances, %zu trace events, traced simulation "
              "%.3fs (%lld skipped), check_invariants %.3fs (best of 5, %zu "
              "violations)\n",
              traced_options.instances, report.trace_events_seen,
              traced_seconds,
              static_cast<long long>(traced.fast_forward.skipped_instances),
              check_seconds, report.violations.size());

  // -- batch: serial vs. thread-pool scenario sweep ------------------------
  const std::size_t scenarios = 12;
  const std::size_t batch_instances = std::max<std::size_t>(
      200, std::min<std::size_t>(2000, instances / 5));
  const auto scenario_makespan = [batch_instances](std::size_t i) {
    gen::DagGenParams params;
    params.task_count = 40;
    params.seed = 100 + i;
    TaskGraph g = gen::daggen_random(params);
    gen::set_ccr(g, 0.775);
    const SteadyStateAnalysis a(std::move(g), platforms::qs22_single_cell());
    sim::SimOptions options = bench::paper_sim_options(batch_instances);
    options.fast_forward = false;  // keep every scenario event-by-event
    return sim::simulate(a, mapping::greedy_cpu(a), options).makespan;
  };
  timer.reset();
  const std::vector<double> serial = sim::run_batch_collect<double>(
      scenarios, scenario_makespan, sim::BatchOptions{1});
  const double serial_seconds = timer.seconds();
  timer.reset();
  const std::vector<double> pooled = sim::run_batch_collect<double>(
      scenarios, scenario_makespan, sim::BatchOptions{0});
  const double pooled_seconds = timer.seconds();
  CS_ENSURE(serial == pooled,
            "bench: pooled batch results differ from the serial run");
  json::Value batch = json::Value::object();
  batch.set("scenarios", static_cast<std::uint64_t>(scenarios));
  batch.set("instances_per_scenario",
            static_cast<std::uint64_t>(batch_instances));
  batch.set("threads",
            static_cast<std::uint64_t>(sim::default_batch_threads()));
  batch.set("serial_seconds", serial_seconds);
  batch.set("parallel_seconds", pooled_seconds);
  batch.set("speedup",
            pooled_seconds > 0.0 ? serial_seconds / pooled_seconds : 0.0);
  section.set("batch", std::move(batch));
  std::printf("batch: %zu scenarios, serial %.3fs, %zu threads %.3fs "
              "(%.1fx, results identical)\n",
              scenarios, serial_seconds, sim::default_batch_threads(),
              pooled_seconds,
              pooled_seconds > 0.0 ? serial_seconds / pooled_seconds : 0.0);

  bench::update_bench_json(path, "micro_sim", std::move(section));
  bench::check_bench_json(path, "micro_sim",
                          {"schema", "engine", "flow", "simulation",
                           "oracle", "batch"});
  std::printf("wrote section \"micro_sim\" to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = cellstream::bench::json_output_path(argc, argv);
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
