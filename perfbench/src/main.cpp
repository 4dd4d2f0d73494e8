// cellstream pipeline benchmark.
//
//   pipeline_bench --workload <paper-map|tree-search|stream|sim-check>
//                  [--seed N] [--graph-seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out FILE] [--counter-store DIR]
//
// Times the set-up in batches before and after the passes (the median is
// setup_s) and runs whole passes over the workload's operations while the
// next pass still fits in --seconds (always at least one).  With --trace 1
// it runs one untraced pass and one traced pass instead, reports the
// per-layer metrics of the traced pass and the tracing overhead, and writes
// the spans to --trace-out.  The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: value}}
// run.py adds each metric's unit from BENCHMARK.json.
//
// Single-threaded operations, set-ups included, are pinned to the cores in
// turn (see cores.hpp).
//
// Every pass also yields deterministic work counters (MILP nodes and
// pivots, simulated events, DMA transfers, fault retries, runtime tasks).
// They must be equal in every pass of the run and, through
// --counter-store, in every run of the same build and workload whose seeds
// give it the same work (see counter_key); a mismatch is a failed operation.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "metrics.hpp"
#include "support/json.hpp"
#include "support/parse.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace json = cellstream::json;

/// An untraced run times the set-up in two batches, one before and one
/// after the passes, so its median covers the host's state over the whole
/// run.  Each batch sets the workload up at least kSetupMinRepeats times and
/// for at least kSetupMinSeconds (at most kSetupMaxRepeats times): set-up
/// takes from 0.2 ms to 35 ms, and the short ones need many repetitions.
constexpr std::size_t kSetupMinRepeats = 6;
constexpr std::size_t kSetupMaxRepeats = 500;
constexpr double kSetupMinSeconds = 0.15;

struct Args {
  std::string workload;
  WorkloadOptions options;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;
  std::string counter_store;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.options.seed = cellstream::parse_u64(value, "--seed");
    } else if (flag == "--graph-seed") {
      args.options.graph_seed = cellstream::parse_u64(value, "--graph-seed");
    } else if (flag == "--seconds") {
      args.seconds = cellstream::parse_double(value, "--seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--counter-store") {
      args.counter_store = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  return args;
}

/// Differences between two counter sets, one line each.
Problems counter_mismatches(const std::map<std::string, std::uint64_t>& expected,
                            const std::map<std::string, std::uint64_t>& got) {
  Problems problems;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> all;
  for (const auto& [k, v] : expected) all[k].first = v;
  for (const auto& [k, v] : got) all[k].second = v;
  for (const auto& [k, v] : all) {
    if (v.first != v.second) {
      problems.push_back("nondeterministic counter " + k + ": " +
                         std::to_string(v.second) + ", expected " +
                         std::to_string(v.first));
    }
  }
  return problems;
}

/// Compare the counters with those an earlier run of the same build and
/// counter key stored; store them if none did.
void check_against_store(const Args& args,
                         const std::map<std::string, std::uint64_t>& counters,
                         Tally& tally) {
  namespace fs = std::filesystem;
  fs::create_directories(args.counter_store);
  const fs::path file = fs::path(args.counter_store) /
                        (counter_key(args.workload, args.options) + ".json");
  if (!fs::exists(file)) {
    json::Value doc = json::Value::object();
    for (const auto& [k, v] : counters) doc.set(k, v);
    std::ofstream(file) << doc.dump(1) << "\n";
    return;
  }
  std::ifstream in(file);
  std::stringstream text;
  text << in.rdbuf();
  tally.run("counters against earlier runs", [&] {
    const json::Value doc = json::Value::parse(text.str());
    std::map<std::string, std::uint64_t> stored;
    for (const auto& [k, v] : doc.members()) {
      stored[k] = static_cast<std::uint64_t>(v.as_number());
    }
    return counter_mismatches(stored, counters);
  });
}

PassResult run_pass(Workload& workload, Tracer& tracer, Tally& tally,
                    CoreRotation& cores) {
  PassResult pass;
  const double start = now_s();
  workload.pass(tracer, tally, cores, pass);
  pass.wall_s = now_s() - start - pass.probe_s;
  return pass;
}

/// The end-to-end figures of one pass, as named in BENCHMARK.json.  The
/// throughputs count stream instances per second of the pipeline: mapping
/// plus execution, and mapping plus execution plus checking.  Where the
/// mapping is a heuristic (microseconds) they are the executor's and the
/// oracle's rates; where it is the MILP they follow the solver, and the
/// millisecond fast-forwarded simulations do not add their noise.
std::map<std::string, double> pass_figures(const PassResult& p) {
  const auto per_s = [](std::uint64_t count, double seconds) {
    return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
  };
  return {
      {"time_to_map_s", p.map_s},
      {"stream_throughput", per_s(p.executed, p.map_s + p.exec_s)},
      {"check_throughput", per_s(p.checked, p.map_s + p.exec_s + p.check_s)},
      {"pass_s", p.wall_s},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}

json::Value metrics_json(const std::map<std::string, double>& metrics) {
  json::Value out = json::Value::object();
  for (const auto& [name, value] : metrics) out.set(name, value);
  return out;
}

/// One batch of untraced set-ups; returns the last workload set up.
std::unique_ptr<Workload> time_setups(const Args& args, CoreRotation& cores,
                                      std::vector<double>& times) {
  Tracer untraced(false);
  std::unique_ptr<Workload> workload;
  const double batch_start = now_s();
  for (std::size_t n = 0;
       n < kSetupMaxRepeats &&
       (n < kSetupMinRepeats || now_s() - batch_start < kSetupMinSeconds);
       ++n) {
    workload = make_workload(args.workload, args.options);
    cores.next();
    const double start = now_s();
    workload->setup(untraced);
    times.push_back(now_s() - start);
  }
  cores.release();
  return workload;
}

int run(const Args& args) {
  CoreRotation cores;
  Tracer tracer(args.trace);
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  if (args.trace) {
    workload = make_workload(args.workload, args.options);
    workload->setup(tracer);
  } else {
    workload = time_setups(args, cores, setup_s);
  }

  Tally tally;
  std::vector<PassResult> passes;
  const double start = now_s();
  double longest = 0.0;
  while (passes.empty() ||
         (!args.trace && now_s() - start + longest <= args.seconds) ||
         (args.trace && passes.size() < 2)) {
    // A traced run: the first pass is untraced, the second traced.
    tracer.set_enabled(args.trace && passes.size() == 1);
    passes.push_back(run_pass(*workload, tracer, tally, cores));
    longest = std::max(longest, passes.back().wall_s);
    std::fprintf(stderr, "%s: pass %zu%s %.3f s\n", args.workload.c_str(),
                 passes.size(), tracer.enabled() ? " (traced)" : "",
                 passes.back().wall_s);
  }

  if (!args.trace) {
    time_setups(args, cores, setup_s);
    std::fprintf(stderr, "%s: set-up median %.6g s of %zu\n",
                 args.workload.c_str(), median(setup_s), setup_s.size());
  }

  for (std::size_t i = 1; i < passes.size(); ++i) {
    tally.record("counters of pass " + std::to_string(i + 1),
                 counter_mismatches(passes[0].counters, passes[i].counters));
    if (passes[i].speedups != passes[0].speedups) {
      tally.record("speed-ups of pass " + std::to_string(i + 1),
                   {"simulated speed-ups differ from the first pass"});
    }
  }
  if (!args.counter_store.empty()) {
    check_against_store(args, passes[0].counters, tally);
  }
  for (const std::string& f : tally.failures()) {
    std::fprintf(stderr, "FAILED %s\n", f.c_str());
  }

  std::map<std::string, double> metrics;
  if (!args.trace) {
    std::map<std::string, std::vector<double>> samples;
    for (const PassResult& p : passes) {
      for (const auto& [k, v] : pass_figures(p)) samples[k].push_back(v);
    }
    for (const auto& [name, values] : samples) {
      if (values.size() < 2) continue;
      const Quartiles q = quartiles(values);
      std::fprintf(stderr, "%s: %s median %.6g, quartiles %.6g .. %.6g (%zu passes)\n",
                   args.workload.c_str(), name.c_str(), q.q2, q.q1, q.q3,
                   values.size());
    }
    metrics["setup_s"] = median(setup_s);
    metrics["time_to_map_s"] = median(samples["time_to_map_s"]);
    // Empty only when every operation failed, which the result reports.
    metrics["mapping_speedup"] =
        passes[0].speedups.empty() ? 0.0 : geomean(passes[0].speedups);
    metrics["stream_throughput"] = median(samples["stream_throughput"]);
    metrics["check_throughput"] = median(samples["check_throughput"]);
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    const PassResult& untraced = passes[0];
    const PassResult& traced = passes[1];
    metrics = per_layer_metrics(traced, tracer);
    metrics["failed_share"] = failed_share(tally.failed(), tally.attempted());
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s;
    metrics["trace.overhead_share"] =
        (traced.wall_s - untraced.wall_s) / untraced.wall_s;
    if (!args.trace_out.empty()) {
      json::Value overhead = json::Value::object();
      const auto u = pass_figures(untraced);
      const auto t = pass_figures(traced);
      for (const auto& [k, v] : u) {
        json::Value entry = json::Value::object();
        entry.set("untraced", v);
        entry.set("traced", t.at(k));
        entry.set("overhead", t.at(k) - v);
        overhead.set(k, std::move(entry));
      }
      json::Value doc = tracer.to_json();
      doc.set("workload", args.workload);
      doc.set("seed", args.options.seed);
      doc.set("graph_seed", args.options.graph_seed);
      doc.set("tracing_overhead", std::move(overhead));
      doc.set("per_layer", metrics_json(metrics));
      std::filesystem::path out(args.trace_out);
      if (out.has_parent_path()) std::filesystem::create_directories(out.parent_path());
      std::ofstream(out) << doc.dump(1) << "\n";
    }
  }

  json::Value result = json::Value::object();
  result.set("correct", tally.failed() == 0);
  result.set("attempted", tally.attempted());
  result.set("failed", tally.failed());
  result.set("metrics", metrics_json(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 2;
  }
}
