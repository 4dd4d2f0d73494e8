// Actually *run* a streaming computation through the scheduler: a small
// DSP pipeline (synthesize -> moving-average filter (peek=1) -> decimate
// -> RMS meter) executes on host threads standing in for the Cell's PEs,
// pipelined according to the MILP mapping (runtime::run_stream).
//
//   $ ./host_pipeline [instances]
//
// One instance = one block of 512 samples.  The sink cross-checks every
// RMS value against a sequentially computed reference, so this example
// doubles as an end-to-end correctness demonstration of the runtime.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "mapping/milp_mapper.hpp"
#include "runtime/host_runtime.hpp"
#include "support/parse.hpp"

namespace {

using namespace cellstream;
using runtime::Packet;
using runtime::TaskInputs;

constexpr std::size_t kBlock = 512;

Packet pack_samples(const std::vector<double>& samples) {
  Packet p(samples.size() * sizeof(double));
  std::memcpy(p.data(), samples.data(), p.size());
  return p;
}

std::vector<double> unpack_samples(const Packet& p) {
  std::vector<double> samples(p.size() / sizeof(double));
  std::memcpy(samples.data(), p.data(), p.size());
  return samples;
}

std::vector<double> synthesize_block(std::int64_t instance) {
  std::vector<double> block(kBlock);
  for (std::size_t s = 0; s < kBlock; ++s) {
    const double t =
        static_cast<double>(instance) * kBlock + static_cast<double>(s);
    block[s] = std::sin(0.01 * t) + 0.25 * std::sin(0.037 * t);
  }
  return block;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t instances = 2000;
  try {
    if (argc > 1) {
      instances = static_cast<std::int64_t>(parse_u64(argv[1], "instances"));
    }
  } catch (const cellstream::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // The task graph: costs describe the *Cell* execution the mapping is
  // optimized for; the host run then follows that mapping.
  TaskGraph graph("dsp");
  Task synth;
  synth.name = "synthesize";
  synth.wppe = 0.4e-3;
  synth.wspe = 0.2e-3;
  const TaskId t_synth = graph.add_task(synth);

  Task filter;
  filter.name = "moving_average";
  filter.wppe = 1.2e-3;
  filter.wspe = 0.3e-3;  // SIMD-friendly
  filter.peek = 1;       // smooths across the block boundary
  const TaskId t_filter = graph.add_task(filter);

  Task decimate;
  decimate.name = "decimate";
  decimate.wppe = 0.3e-3;
  decimate.wspe = 0.15e-3;
  const TaskId t_decimate = graph.add_task(decimate);

  Task meter;
  meter.name = "rms_meter";
  meter.wppe = 0.2e-3;
  meter.wspe = 0.4e-3;  // scalar reduction: PPE-friendly
  const TaskId t_meter = graph.add_task(meter);

  graph.add_edge(t_synth, t_filter, kBlock * sizeof(double));
  graph.add_edge(t_filter, t_decimate, kBlock * sizeof(double));
  graph.add_edge(t_decimate, t_meter, kBlock / 2 * sizeof(double));

  const SteadyStateAnalysis analysis(graph, platforms::playstation3());
  const mapping::MilpMapperResult lp = mapping::solve_optimal_mapping(analysis);
  std::printf("mapping: %s (predicted %.0f blocks/s on the Cell)\n",
              lp.mapping.to_string(analysis.platform()).c_str(),
              lp.throughput);

  std::vector<double> rms(static_cast<std::size_t>(instances), 0.0);
  std::vector<runtime::TaskFunction> tasks(4);
  tasks[t_synth] = [](const TaskInputs& in) {
    return std::vector<Packet>{pack_samples(synthesize_block(in.instance))};
  };
  tasks[t_filter] = [](const TaskInputs& in) {
    const std::vector<double> cur = unpack_samples(*in.inputs[0][0]);
    // 3-tap moving average; the last sample peeks into the next block.
    std::vector<double> next;
    if (in.inputs[0][1] != nullptr) next = unpack_samples(*in.inputs[0][1]);
    std::vector<double> out(kBlock);
    for (std::size_t s = 0; s < kBlock; ++s) {
      const double a = cur[s];
      const double b = s + 1 < kBlock ? cur[s + 1]
                       : (next.empty() ? cur[s] : next[0]);
      const double c = s + 2 < kBlock ? cur[s + 2]
                       : (next.empty() ? cur[s]
                                       : next[(s + 2) - kBlock]);
      out[s] = (a + b + c) / 3.0;
    }
    return std::vector<Packet>{pack_samples(out)};
  };
  tasks[t_decimate] = [](const TaskInputs& in) {
    const std::vector<double> cur = unpack_samples(*in.inputs[0][0]);
    std::vector<double> out(kBlock / 2);
    for (std::size_t s = 0; s < out.size(); ++s) out[s] = cur[2 * s];
    return std::vector<Packet>{pack_samples(out)};
  };
  tasks[t_meter] = [&](const TaskInputs& in) {
    const std::vector<double> cur = unpack_samples(*in.inputs[0][0]);
    double acc = 0.0;
    for (double v : cur) acc += v * v;
    rms[static_cast<std::size_t>(in.instance)] =
        std::sqrt(acc / static_cast<double>(cur.size()));
    return std::vector<Packet>{};
  };

  runtime::RunOptions options;
  options.instances = instances;
  const runtime::RunStats stats =
      runtime::run_stream(analysis, lp.mapping, tasks, options);
  std::printf("host run: %lld blocks in %.3f s (%.0f blocks/s wall)\n",
              static_cast<long long>(instances), stats.wall_seconds,
              stats.counters.observed_throughput());

  // Cross-check a few RMS values against a sequential reference.
  std::size_t checked = 0, wrong = 0;
  for (std::int64_t i : {std::int64_t{0}, instances / 2, instances - 1}) {
    const std::vector<double> cur = synthesize_block(i);
    const std::vector<double> next = synthesize_block(i + 1);
    std::vector<double> filtered(kBlock);
    for (std::size_t s = 0; s < kBlock; ++s) {
      const double a = cur[s];
      const double b = s + 1 < kBlock ? cur[s + 1]
                       : (i + 1 < instances ? next[0] : cur[s]);
      const double c = s + 2 < kBlock ? cur[s + 2]
                       : (i + 1 < instances ? next[(s + 2) - kBlock] : cur[s]);
      filtered[s] = (a + b + c) / 3.0;
    }
    double acc = 0.0;
    for (std::size_t s = 0; s < kBlock; s += 2) {
      acc += filtered[s] * filtered[s];
    }
    const double expected = std::sqrt(acc / (kBlock / 2.0));
    ++checked;
    if (std::abs(expected - rms[static_cast<std::size_t>(i)]) > 1e-12) {
      ++wrong;
      std::printf("MISMATCH at block %lld: %.12f vs %.12f\n",
                  static_cast<long long>(i), rms[static_cast<std::size_t>(i)],
                  expected);
    }
  }
  std::printf("verification: %zu/%zu reference blocks match\n",
              checked - wrong, checked);
  return wrong == 0 ? 0 : 1;
}
