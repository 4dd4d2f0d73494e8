#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "bench_common.hpp"
#include "check/invariants.hpp"
#include "fault/failover.hpp"
#include "fault/fault_plan.hpp"
#include "gen/daggen.hpp"
#include "lp/simplex.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/milp_mapper.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace cellstream;

namespace {

constexpr double kCcr = 0.775;
/// Stream length of every simulation (the paper's Fig. 7 runs).
constexpr std::size_t kSimInstances = 5000;

/// Adds the wall time of its scope to `total`.
class Stopwatch {
 public:
  explicit Stopwatch(double& total) : total_(total) {}
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;
  ~Stopwatch() { total_ += now_s() - start_; }

 private:
  double& total_;
  double start_ = now_s();
};

/// Runs a heuristic mapper, which takes microseconds: once inside its span,
/// then again until 10 ms have passed, and adds the mean time per call to
/// `total`, so that one pass yields a steady figure.
Mapping map_heuristic(Tracer& tracer, const std::string& name,
                      const SteadyStateAnalysis& analysis, double& total) {
  const double start = now_s();
  Mapping m;
  {
    auto span = tracer.span("mapping", name);
    m = mapping::run_heuristic(name, analysis);
  }
  int calls = 1;
  for (; now_s() - start < 10e-3; ++calls) {
    if (mapping::run_heuristic(name, analysis) != m) {
      throw std::runtime_error(name + " returned two different mappings");
    }
  }
  total += (now_s() - start) / calls;
  return m;
}

/// Records the simulated speed-up of a mapping over the PPE-only one.
void note_speedup(PassResult& out, Problems& problems, double mapped,
                  double ppe_only) {
  const double speedup = mapped / ppe_only;
  if (std::isfinite(speedup) && speedup > 0.0) {
    out.speedups.push_back(speedup);
  } else {
    problems.push_back("no finite speed-up: steady throughput " +
                       std::to_string(mapped) + " over PPE-only " +
                       std::to_string(ppe_only));
  }
}

void append(Problems& to, const Problems& from) {
  to.insert(to.end(), from.begin(), from.end());
}

void keep_max(std::map<std::string, double>& layer, const std::string& key,
              double value) {
  double& slot = layer[key];
  slot = std::max(slot, value);
}

/// Simulator bookkeeping shared by every workload that simulates.
/// `sim.events` counts simulated task executions, which every run reports
/// and fast-forward keeps exact (the trace exists on traced runs only).
void note_sim(PassResult& out, const sim::SimResult& r) {
  for (const obs::PeCounters& pe : r.counters.pe) {
    out.counters["sim.events"] += pe.tasks_executed;
  }
  out.counters["sim.dma_transfers"] += r.dma_transfers;
  out.layer["sim.runs"] += 1;
  out.layer["sim.instances"] += static_cast<double>(r.completion_times.size());
  out.layer["sim.ff_engaged"] += r.fast_forward.engaged ? 1 : 0;
  out.layer["sim.ff_skipped"] +=
      static_cast<double>(r.fast_forward.skipped_instances);
}

/// Observed steady period over the analytic one: >= ~1, the paper's ~5 %
/// model gap.
void note_period_ratio(PassResult& out, const SteadyStateAnalysis& analysis,
                       const Mapping& mapping, const sim::SimResult& r) {
  out.layer["sim.period_ratio_sum"] +=
      1.0 / (r.steady_throughput * analysis.period(mapping));
  out.layer["sim.period_ratio_n"] += 1;
}

/// Simulates `mapping` with the paper's overheads; adds the time to `timer`
/// and to the simulator's event time.
sim::SimResult simulate(Tracer& tracer, PassResult& out, double& timer,
                        const SteadyStateAnalysis& analysis,
                        const Mapping& mapping, bool record_trace) {
  sim::SimOptions options = bench::paper_sim_options(kSimInstances);
  options.record_trace = record_trace;
  sim::SimResult r;
  double event_s = 0.0;
  {
    auto span = tracer.span("sim", record_trace ? "simulate traced" : "simulate");
    Stopwatch watch(event_s);
    r = sim::simulate(analysis, mapping, options);
  }
  timer += event_s;
  out.layer["sim.event_s"] += event_s;
  note_sim(out, r);
  return r;
}

Problems check_run(Tracer& tracer, PassResult& out,
                   const SteadyStateAnalysis& analysis, const Mapping& mapping,
                   const sim::SimResult& r) {
  check::InvariantReport report;
  {
    auto span = tracer.span("check", "check_invariants");
    Stopwatch watch(out.check_s);
    report = check::check_invariants(analysis, mapping, r);
  }
  out.checked += r.completion_times.size();
  out.layer["check.events"] += static_cast<double>(report.trace_events_seen);
  out.layer["check.violations"] += static_cast<double>(report.violations.size());
  return invariant_problems(report.violations);
}

// -- paper-map and tree-search ---------------------------------------------

struct MilpConfig {
  std::string name;
  SteadyStateAnalysis analysis;
  double incumbent_period;  ///< Best seeded heuristic incumbent.
};

class MilpWorkload : public Workload {
 public:
  struct Spec {
    std::string name;
    TaskGraph graph;
    CellPlatform platform;
  };

  MilpWorkload(std::function<std::vector<Spec>(Tracer&)> generate,
               mapping::MilpMapperOptions options)
      : generate_(std::move(generate)), options_(std::move(options)) {}

  void setup(Tracer& tracer) override {
    configs_.clear();
    for (Spec& spec : generate_(tracer)) {
      std::optional<SteadyStateAnalysis> analysis;
      {
        auto span = tracer.span("core", "SteadyStateAnalysis");
        analysis.emplace(std::move(spec.graph), spec.platform);
      }
      double incumbent = 0.0;
      {
        auto span = tracer.span("mapping", "seeded heuristics");
        incumbent = best_seeded_period(*analysis);
      }
      configs_.push_back({std::move(spec.name), std::move(*analysis), incumbent});
    }
  }

  void pass(Tracer& tracer, Tally& tally, CoreRotation& cores,
            PassResult& out) override {
    for (const MilpConfig& c : configs_) {
      if (options_.milp.threads == 1) {
        cores.next();
      } else {
        cores.release();
      }
      tracer.begin_op();
      auto op = tracer.span("bench", c.name);
      tally.run(c.name, [&] { return solve_one(tracer, c, out); });
    }
  }

 private:
  Problems solve_one(Tracer& tracer, const MilpConfig& c, PassResult& out) {
    Problems problems;
    mapping::MilpMapperResult r;
    {
      auto span = tracer.span("mapping", "solve_optimal_mapping");
      Stopwatch watch(out.map_s);
      r = mapping::solve_optimal_mapping(c.analysis, options_);
    }
    const milp::SearchStats& s = r.stats;
    out.counters["milp.nodes"] += r.nodes;
    out.counters["milp.pivots"] += r.lp_iterations;
    out.counters["milp.phase1_pivots"] += s.phase1_iterations;
    std::map<std::string, double>& l = out.layer;
    l["milp.rounds"] += static_cast<double>(s.rounds);
    l["milp.warm_hits"] += static_cast<double>(s.warm_start_hits);
    l["milp.warm_misses"] += static_cast<double>(s.warm_start_misses);
    l["milp.pruned_by_bound"] += static_cast<double>(s.pruned_by_bound);
    l["milp.infeasible_nodes"] += static_cast<double>(s.infeasible_nodes);
    l["milp.callback_candidates"] += static_cast<double>(s.callback_candidates);
    l["milp.callback_accepted"] += static_cast<double>(s.callback_accepted);
    keep_max(l, "milp.max_open", static_cast<double>(s.max_open_size));
    keep_max(l, "milp.gap", r.gap);
    if (r.status == milp::Status::kLimitFeasible &&
        r.nodes >= options_.milp.max_nodes) {
      l["milp.budget_stops"] += 1;
    }
    append(problems, milp_stop_problems(r, options_.milp));
    {
      auto span = tracer.span("core", "output checks");
      append(problems, mapping_problems(c.analysis, r.mapping, c.incumbent_period));
    }

    const Mapping baseline = ppe_only_mapping(c.analysis.graph());
    const sim::SimResult mapped =
        simulate(tracer, out, out.exec_s, c.analysis, r.mapping, false);
    const sim::SimResult base =
        simulate(tracer, out, out.exec_s, c.analysis, baseline, false);
    out.executed += mapped.completion_times.size() + base.completion_times.size();
    note_period_ratio(out, c.analysis, r.mapping, mapped);
    append(problems, check_run(tracer, out, c.analysis, r.mapping, mapped));
    append(problems, check_run(tracer, out, c.analysis, baseline, base));
    note_speedup(out, problems, mapped.steady_throughput, base.steady_throughput);

    if (tracer.enabled()) probe_root_lp(tracer, c, out);
    return problems;
  }

  /// Traced runs only: build the formulation and solve its LP relaxation
  /// once more from outside, which splits the opaque solve call into
  /// formulation, root LP and the rest.  Excluded from the pass time.
  void probe_root_lp(Tracer& tracer, const MilpConfig& c, PassResult& out) {
    Stopwatch watch(out.probe_s);
    std::optional<mapping::Formulation> f;
    {
      auto span = tracer.span("mapping", "build_formulation");
      f.emplace(mapping::build_formulation(c.analysis));
    }
    out.layer["mapping.configs"] += 1;
    out.layer["mapping.rows"] += static_cast<double>(f->problem.row_count());
    out.layer["mapping.vars"] += static_cast<double>(f->problem.variable_count());
    auto span = tracer.span("lp", "solve_lp root relaxation");
    const lp::SimplexResult root = lp::solve_lp(f->problem, options_.milp.lp);
    out.layer["lp.root_pivots"] += static_cast<double>(root.iterations);
    out.layer["lp.root_phase1_pivots"] +=
        static_cast<double>(root.phase1_iterations);
  }

  std::function<std::vector<Spec>(Tracer&)> generate_;
  mapping::MilpMapperOptions options_;
  std::vector<MilpConfig> configs_;
};

std::unique_ptr<Workload> make_paper_map() {
  // The paper's Fig. 7 (4, 6, 8 SPEs at CCR 0.775) and Fig. 8 (8 SPEs at
  // CCR 1.5 and 2.3) points, at the CLI's mapper defaults: 5 % gap, one
  // thread, 60 s safety limit (the slowest configuration takes ~4 s).
  auto generate = [](Tracer& tracer) {
    struct Point {
      std::size_t spes;
      double ccr;
    };
    const Point points[] = {{4, kCcr}, {6, kCcr}, {8, kCcr}, {8, 1.5}, {8, 2.3}};
    std::vector<MilpWorkload::Spec> specs;
    for (int g = 0; g < 3; ++g) {
      for (const Point& p : points) {
        auto span = tracer.span("gen", "paper_graph");
        TaskGraph graph = gen::paper_graph(g);
        gen::set_ccr(graph, p.ccr);
        specs.push_back({"graph " + std::to_string(g) + ", " +
                             std::to_string(p.spes) + " SPEs, CCR " +
                             std::to_string(p.ccr),
                         std::move(graph), platforms::qs22_with_spes(p.spes)});
      }
    }
    return specs;
  };
  return std::make_unique<MilpWorkload>(generate, mapping::MilpMapperOptions{});
}

std::unique_ptr<Workload> make_tree_search(std::uint64_t graph_seed) {
  auto generate = [graph_seed](Tracer& tracer) {
    std::vector<MilpWorkload::Spec> specs;
    for (const std::size_t k : {15, 20}) {
      for (std::uint64_t s = 8 * (graph_seed - 1) + 1; s <= 8 * graph_seed; ++s) {
        auto span = tracer.span("gen", "daggen_random");
        gen::DagGenParams params;
        params.task_count = k;
        params.seed = s;
        TaskGraph graph = gen::daggen_random(params);
        gen::set_ccr(graph, kCcr);
        specs.push_back({"K=" + std::to_string(k) + " seed " + std::to_string(s),
                         std::move(graph), platforms::qs22_single_cell()});
      }
    }
    return specs;
  };
  // The 512-node budget stops one graph of the default set (K=15, seed 3)
  // at gap 0.23; the 60 s safety limit sits ~8x above the slowest solve.
  mapping::MilpMapperOptions options;
  options.milp.max_nodes = 512;
  options.with_threads(4);
  return std::make_unique<MilpWorkload>(generate, options);
}

// -- stream -------------------------------------------------------------------

/// Stream length of the one host run of a pass.  Short passes give many
/// samples per run, so the median rides out the bursts in which other
/// processes delay the two workers.
constexpr std::int64_t kStreamInstances = 5000;

/// FNV-1a over 64-bit words and packet bytes, as the CLI's `run` bodies.
class Fnv {
 public:
  explicit Fnv(std::uint64_t salt) { word(salt); }
  void word(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(std::uint64_t seed) : seed_(seed) {}
  // The task bodies hold pointers into sink_hashes_.
  StreamWorkload(const StreamWorkload&) = delete;
  StreamWorkload& operator=(const StreamWorkload&) = delete;

  void setup(Tracer& tracer) override {
    TaskGraph graph;
    {
      auto span = tracer.span("gen", "paper_graph");
      graph = gen::paper_graph(0);
      gen::set_ccr(graph, kCcr);
    }
    {
      auto span = tracer.span("core", "SteadyStateAnalysis");
      analysis_.emplace(std::move(graph), platforms::qs22_with_spes(1));
    }
    auto span = tracer.span("bench", "task bodies and expected outputs");
    make_bodies();
    expected_ = reference_sink_hashes();
  }

  void pass(Tracer& tracer, Tally& tally, CoreRotation& cores,
            PassResult& out) override {
    std::optional<Mapping> mapping;
    tracer.begin_op();
    {
      auto op = tracer.span("bench", "host run");
      tally.run("host run", [&] {
        cores.next();
        mapping = map_heuristic(tracer, "greedy-mem", *analysis_, out.map_s);
        Problems problems = mapping_problems(
            *analysis_, *mapping, std::numeric_limits<double>::infinity());
        // The runtime's two workers inherit this thread's affinity: two
        // cores, so that they still contend for the lock across cores.
        cores.next(2);
        append(problems, run_once(tracer, *mapping, out));
        return problems;
      });
    }
    tracer.begin_op();
    auto op = tracer.span("bench", "simulated speed-up");
    tally.run("simulated speed-up", [&] {
      cores.next();
      // Evaluates the mapping; not part of the stream's execution time.
      double untimed = 0.0;
      const Mapping m = mapping.value();
      const Mapping baseline = ppe_only_mapping(analysis_->graph());
      const sim::SimResult mapped = simulate(tracer, out, untimed, *analysis_, m, false);
      const sim::SimResult base =
          simulate(tracer, out, untimed, *analysis_, baseline, false);
      note_period_ratio(out, *analysis_, m, mapped);
      Problems problems;
      note_speedup(out, problems, mapped.steady_throughput, base.steady_throughput);
      return problems;
    });
  }

 private:
  Problems run_once(Tracer& tracer, const Mapping& mapping, PassResult& out) {
    for (auto& hashes : sink_hashes_) std::fill(hashes.begin(), hashes.end(), 0);
    runtime::RunOptions options;
    options.instances = kStreamInstances;
    runtime::RunStats stats;
    {
      auto span = tracer.span("runtime", "run_stream");
      Stopwatch watch(out.exec_s);
      stats = runtime::run_stream(*analysis_, mapping, bodies_, options);
    }
    out.executed += stats.counters.instances_completed();
    out.counters["runtime.tasks_executed"] += stats.tasks_executed;
    double compute = 0.0;
    std::size_t workers = 0;
    for (const obs::PeCounters& pe : stats.counters.pe) {
      compute += pe.compute_seconds;
      if (pe.tasks_executed > 0) ++workers;
    }
    out.layer["runtime.compute_s"] += compute;
    out.layer["runtime.worker_s"] += static_cast<double>(workers) * stats.wall_seconds;
    for (EdgeId e = 0; e < stats.max_buffer_occupancy.size(); ++e) {
      keep_max(out.layer, "runtime.max_buffer_fill",
               static_cast<double>(stats.max_buffer_occupancy[e]) /
                   static_cast<double>(analysis_->buffer_depth(e)));
    }

    Problems problems;
    {
      auto span = tracer.span("check", "check_stream_integrity");
      Stopwatch watch(out.check_s);
      append(problems, invariant_problems(check::check_stream_integrity(
                           analysis_->graph(), check::accounting_of(stats),
                           kStreamInstances)));
      if (sink_hashes_ != expected_) {
        problems.push_back("sink checksums differ from the serial reference");
      }
    }
    out.checked += static_cast<std::uint64_t>(kStreamInstances);
    return problems;
  }

  /// Checksum bodies as `cellstream_cli run` uses them, salted with the
  /// seed; sinks also record their checksum so the run's output can be
  /// compared with a serial evaluation of the same dataflow.
  void make_bodies() {
    const TaskGraph& graph = analysis_->graph();
    bodies_.clear();
    sink_hashes_.assign(graph.sinks().size(),
                        std::vector<std::uint64_t>(kStreamInstances, 0));
    std::size_t sink = 0;
    for (TaskId t = 0; t < graph.task_count(); ++t) {
      const std::size_t outputs = graph.out_edges(t).size();
      std::uint64_t* record = outputs == 0 ? sink_hashes_[sink++].data() : nullptr;
      bodies_.push_back([t, outputs, record, salt = seed_](
                            const runtime::TaskInputs& in) {
        Fnv h(salt);
        h.word(t);
        h.word(static_cast<std::uint64_t>(in.instance));
        for (const auto& edge_inputs : in.inputs) {
          for (const runtime::Packet* p : edge_inputs) {
            if (p == nullptr) continue;
            for (const std::byte b : *p) h.byte(static_cast<std::uint8_t>(b));
          }
        }
        // Each (sink, instance) slot is written by the one worker that
        // runs that instance; the caller reads after run_stream joins.
        if (record != nullptr) record[in.instance] = h.value();
        std::vector<runtime::Packet> out(outputs);
        const std::uint64_t v = h.value();
        for (runtime::Packet& p : out) {
          p.resize(sizeof v);
          std::memcpy(p.data(), &v, sizeof v);
        }
        return out;
      });
    }
  }

  /// The checksum every sink must produce, by evaluating the graph task by
  /// task in topological order on one thread.
  std::vector<std::vector<std::uint64_t>> reference_sink_hashes() const {
    const TaskGraph& graph = analysis_->graph();
    const std::int64_t n = kStreamInstances;
    std::vector<std::vector<std::uint64_t>> value(graph.task_count());
    for (const TaskId t : graph.topological_order()) {
      value[t].resize(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        Fnv h(seed_);
        h.word(t);
        h.word(static_cast<std::uint64_t>(i));
        for (const EdgeId e : graph.in_edges(t)) {
          for (int d = 0; d <= graph.task(t).peek && i + d < n; ++d) {
            std::uint8_t bytes[8];
            std::memcpy(bytes, &value[graph.edge(e).from][static_cast<std::size_t>(i + d)],
                        sizeof bytes);
            for (const std::uint8_t b : bytes) h.byte(b);
          }
        }
        value[t][static_cast<std::size_t>(i)] = h.value();
      }
    }
    std::vector<std::vector<std::uint64_t>> sinks;
    for (TaskId t = 0; t < graph.task_count(); ++t) {
      if (graph.out_edges(t).empty()) sinks.push_back(value[t]);
    }
    return sinks;
  }

  std::uint64_t seed_;
  std::optional<SteadyStateAnalysis> analysis_;
  std::vector<runtime::TaskFunction> bodies_;
  std::vector<std::vector<std::uint64_t>> sink_hashes_;
  std::vector<std::vector<std::uint64_t>> expected_;
};

// -- sim-check ----------------------------------------------------------------

constexpr int kFaultScenarios = 2;

class SimCheckWorkload : public Workload {
 public:
  explicit SimCheckWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    graphs_.clear();
    for (int g = 0; g < 3; ++g) {
      TaskGraph graph;
      {
        auto span = tracer.span("gen", "paper_graph");
        graph = gen::paper_graph(g);
        gen::set_ccr(graph, kCcr);
      }
      auto span = tracer.span("core", "SteadyStateAnalysis");
      graphs_.push_back({std::nullopt, {}});
      graphs_.back().analysis.emplace(std::move(graph),
                                      platforms::qs22_single_cell());
    }
    // Plans without a PE failure are drawn again, so that every scenario
    // fails one SPE and the failover work does not hinge on the seed.
    Rng rng(seed_);
    for (GraphInputs& g : graphs_) {
      for (auto& plan : g.plans) {
        auto span = tracer.span("fault", "FaultPlan::random");
        do {
          plan = fault::FaultPlan::random(rng(), g.analysis->platform(),
                                          kSimInstances);
        } while (!plan.pe_failure);
      }
    }
  }

  void pass(Tracer& tracer, Tally& tally, CoreRotation& cores,
            PassResult& out) override {
    for (std::size_t g = 0; g < graphs_.size(); ++g) {
      const SteadyStateAnalysis& analysis = *graphs_[g].analysis;
      const std::string graph_name = "graph " + std::to_string(g);
      double base_throughput = 0.0;
      tracer.begin_op();
      {
        auto op = tracer.span("bench", graph_name + " ppe-only");
        tally.run(graph_name + " ppe-only", [&] {
          cores.next();
          const Mapping baseline = ppe_only_mapping(analysis.graph());
          const sim::SimResult base =
              simulate(tracer, out, out.exec_s, analysis, baseline, false);
          out.executed += base.completion_times.size();
          base_throughput = base.steady_throughput;
          return check_run(tracer, out, analysis, baseline, base);
        });
      }
      for (int h = 0; h < 2; ++h) {
        heuristic_pass(tracer, tally, cores, out, g,
                       h == 0 ? "greedy-cpu" : "greedy-mem", base_throughput);
      }
    }
  }

 private:
  struct GraphInputs {
    std::optional<SteadyStateAnalysis> analysis;
    /// Fault scenarios per heuristic (GREEDYCPU first).
    fault::FaultPlan plans[2 * kFaultScenarios];
  };

  void heuristic_pass(Tracer& tracer, Tally& tally, CoreRotation& cores,
                      PassResult& out, std::size_t g,
                      const std::string& heuristic, double base_throughput) {
    const GraphInputs& inputs = graphs_[g];
    const SteadyStateAnalysis& analysis = *inputs.analysis;
    const std::string name = "graph " + std::to_string(g) + " " + heuristic;

    tracer.begin_op();
    {
      auto op = tracer.span("bench", name + " traced");
      tally.run(name + " traced", [&] {
        cores.next();
        const Mapping m = map_heuristic(tracer, heuristic, analysis, out.map_s);
        Problems problems = mapping_problems(
            analysis, m, std::numeric_limits<double>::infinity());
        const sim::SimResult r =
            simulate(tracer, out, out.exec_s, analysis, m, true);
        out.executed += r.completion_times.size();
        note_period_ratio(out, analysis, m, r);
        note_speedup(out, problems, r.steady_throughput, base_throughput);
        append(problems, check_run(tracer, out, analysis, m, r));
        return problems;
      });
    }

    const int first_plan = heuristic == "greedy-cpu" ? 0 : kFaultScenarios;
    for (int k = 0; k < kFaultScenarios; ++k) {
      const std::string fault_name = name + " fault " + std::to_string(k);
      tracer.begin_op();
      auto op = tracer.span("bench", fault_name);
      tally.run(fault_name, [&] {
        cores.next();
        // Each scenario maps its graph, as a user's run would; the mapping
        // equals the traced operation's, and the pass times 18 heuristic
        // windows instead of 6.
        const Mapping m = map_heuristic(tracer, heuristic, analysis, out.map_s);
        fault::FailoverOptions options;
        options.sim = bench::paper_sim_options(kSimInstances);
        options.sim.record_trace = true;
        fault::FailoverOutcome outcome;
        double event_s = 0.0;
        {
          auto span = tracer.span("fault", "run_with_failover");
          Stopwatch watch(event_s);
          outcome = fault::run_with_failover(analysis, m,
                                             inputs.plans[first_plan + k], options);
        }
        out.exec_s += event_s;
        out.layer["sim.event_s"] += event_s;
        note_sim(out, outcome.result);
        out.executed += outcome.result.completion_times.size();
        out.counters["fault.dma_retries"] +=
            static_cast<std::uint64_t>(outcome.result.faults.dma_retries);
        out.counters["fault.failovers"] +=
            static_cast<std::uint64_t>(outcome.result.faults.failovers);
        out.layer["fault.migrated_tasks"] +=
            static_cast<double>(outcome.result.faults.migrated_tasks);
        check::InvariantReport report;
        {
          auto span = tracer.span("check", "check_failover_invariants");
          Stopwatch watch(out.check_s);
          report = check::check_failover_invariants(analysis, outcome);
        }
        out.checked += outcome.result.completion_times.size();
        out.layer["check.events"] += static_cast<double>(report.trace_events_seen);
        out.layer["check.violations"] +=
            static_cast<double>(report.violations.size());
        return invariant_problems(report.violations);
      });
    }
  }

  std::uint64_t seed_;
  std::vector<GraphInputs> graphs_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "paper-map") return make_paper_map();
  if (name == "tree-search") {
    if (options.graph_seed == 0) {
      throw std::invalid_argument("--graph-seed must be at least 1");
    }
    return make_tree_search(options.graph_seed);
  }
  if (name == "stream") return std::make_unique<StreamWorkload>(options.seed);
  if (name == "sim-check") return std::make_unique<SimCheckWorkload>(options.seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string counter_key(const std::string& name, const WorkloadOptions& options) {
  if (name == "tree-search") return name + "-graph" + std::to_string(options.graph_seed);
  if (name == "sim-check") return name + "-seed" + std::to_string(options.seed);
  return name;
}

std::map<std::string, double> per_layer_metrics(const PassResult& pass,
                                                const Tracer& tracer) {
  const auto layer = [&](const std::string& key) {
    const auto it = pass.layer.find(key);
    return it == pass.layer.end() ? 0.0 : it->second;
  };
  const auto counter = [&](const std::string& key) {
    const auto it = pass.counters.find(key);
    return it == pass.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::map<std::string, double> m;
  m["gen.s"] = tracer.seconds("gen");
  m["core.analysis_s"] = tracer.seconds("core");

  const double configs = layer("mapping.configs");
  const double formulation_s = tracer.seconds("mapping", "build_formulation");
  const double solve_s = tracer.seconds("mapping", "solve_optimal_mapping");
  m["mapping.formulation_s"] = formulation_s;
  m["mapping.rows"] = ratio(layer("mapping.rows"), configs);
  m["mapping.vars"] = ratio(layer("mapping.vars"), configs);
  m["mapping.heuristics_s"] = tracer.seconds("mapping") - formulation_s - solve_s;
  m["mapping.solve_s"] = solve_s;

  const double nodes = counter("milp.nodes");
  const double pivots = counter("milp.pivots");
  m["lp.root_s"] = tracer.seconds("lp");
  m["lp.root_pivots"] = layer("lp.root_pivots");
  m["lp.root_phase1_pivots"] = layer("lp.root_phase1_pivots");
  m["lp.pivots_per_s"] = ratio(pivots, solve_s);

  m["milp.nodes"] = nodes;
  m["milp.rounds"] = layer("milp.rounds");
  m["milp.pivots"] = pivots;
  m["milp.phase1_pivots"] = counter("milp.phase1_pivots");
  m["milp.pivots_per_node"] = ratio(pivots, nodes);
  m["milp.s_per_node"] = ratio(solve_s, nodes);
  m["milp.warm_start_hit_rate"] = ratio(
      layer("milp.warm_hits"), layer("milp.warm_hits") + layer("milp.warm_misses"));
  m["milp.pruned_by_bound"] = layer("milp.pruned_by_bound");
  m["milp.infeasible_nodes"] = layer("milp.infeasible_nodes");
  m["milp.callback_accept_rate"] =
      ratio(layer("milp.callback_accepted"), layer("milp.callback_candidates"));
  m["milp.max_open"] = layer("milp.max_open");
  m["milp.gap"] = layer("milp.gap");
  m["milp.budget_stops"] = layer("milp.budget_stops");

  m["sim.s"] = tracer.seconds("sim");
  m["sim.events"] = counter("sim.events");
  m["sim.events_per_s"] = ratio(counter("sim.events"), layer("sim.event_s"));
  m["sim.dma_transfers"] = counter("sim.dma_transfers");
  m["sim.ff_engaged_share"] = ratio(layer("sim.ff_engaged"), layer("sim.runs"));
  m["sim.ff_skipped_share"] = ratio(layer("sim.ff_skipped"), layer("sim.instances"));
  m["sim.period_ratio"] =
      ratio(layer("sim.period_ratio_sum"), layer("sim.period_ratio_n"));

  const double check_s = tracer.seconds("check");
  m["check.s"] = check_s;
  m["check.events_per_s"] = ratio(layer("check.events"), check_s);
  m["check.violations"] = layer("check.violations");

  m["fault.failover_s"] = tracer.seconds("fault", "run_with_failover");
  m["fault.failovers"] = counter("fault.failovers");
  m["fault.dma_retries"] = counter("fault.dma_retries");
  m["fault.migrated_tasks"] = layer("fault.migrated_tasks");

  const double runtime_s = tracer.seconds("runtime");
  const double tasks = counter("runtime.tasks_executed");
  m["runtime.s"] = runtime_s;
  m["runtime.tasks_executed"] = tasks;
  m["runtime.tasks_per_s"] = ratio(tasks, runtime_s);
  m["runtime.busy_share"] =
      ratio(layer("runtime.compute_s"), layer("runtime.worker_s"));
  m["runtime.not_busy_s"] = layer("runtime.worker_s") - layer("runtime.compute_s");
  m["runtime.max_buffer_fill"] = layer("runtime.max_buffer_fill");
  return m;
}

}  // namespace perfbench
