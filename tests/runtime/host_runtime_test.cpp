// Functional tests of the host execution engine: real data flows through
// real task code, pipelined per a mapping, and the values must be exactly
// what the dataflow defines regardless of thread interleaving.

#include "runtime/host_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>

#include "check/invariants.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/milp_mapper.hpp"
#include "runtime/completion_frontier.hpp"

namespace cellstream::runtime {
namespace {

Task make_task(double w = 0.1e-3, int peek = 0) {
  Task t;
  t.wppe = w;
  t.wspe = w;
  t.peek = peek;
  return t;
}

Packet pack(std::int64_t value) {
  Packet p(sizeof value);
  std::memcpy(p.data(), &value, sizeof value);
  return p;
}

std::int64_t unpack(const Packet& p) {
  std::int64_t value = 0;
  CS_ENSURE(p.size() == sizeof value, "unpack: bad packet");
  std::memcpy(&value, p.data(), sizeof value);
  return value;
}

TEST(HostRuntime, ChainComputesCorrectValuesAcrossPes) {
  // source -> double -> verify, spread over three PEs, 2000 instances.
  TaskGraph g("chain3");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(1, 2, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(3, 0);
  m.assign(1, 1);
  m.assign(2, 2);

  std::atomic<std::int64_t> verified{0};
  std::atomic<bool> mismatch{false};
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance * 3 + 1)};
      },
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(2 * unpack(*in.inputs[0][0]))};
      },
      [&](const TaskInputs& in) {
        if (unpack(*in.inputs[0][0]) != 2 * (in.instance * 3 + 1)) {
          mismatch = true;
        }
        ++verified;
        return std::vector<Packet>{};
      }};

  RunOptions opts;
  opts.instances = 2000;
  const RunStats stats = run_stream(ss, m, tasks, opts);
  EXPECT_EQ(verified.load(), 2000);
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(stats.tasks_executed, 3u * 2000u);
  EXPECT_GT(stats.counters.observed_throughput(), 0.0);
}

TEST(HostRuntime, PeekDeliversFutureInstancesAndClampsAtStreamEnd) {
  // consumer with peek=2 sums x[i] + x[i+1] + x[i+2] (clamped).
  TaskGraph g("peeky");
  g.add_task(make_task());
  g.add_task(make_task(0.1e-3, 2));
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(2, 0);
  m.assign(1, 1);

  const std::int64_t n = 500;
  std::vector<std::int64_t> sums(n, -1);
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance)};
      },
      [&](const TaskInputs& in) {
        std::int64_t sum = 0;
        for (const Packet* p : in.inputs[0]) {
          if (p != nullptr) sum += unpack(*p);
        }
        sums[static_cast<std::size_t>(in.instance)] = sum;
        return std::vector<Packet>{};
      }};
  RunOptions opts;
  opts.instances = n;
  run_stream(ss, m, tasks, opts);

  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t expected = 0;
    for (std::int64_t d = 0; d <= 2 && i + d < n; ++d) expected += i + d;
    EXPECT_EQ(sums[static_cast<std::size_t>(i)], expected) << "instance " << i;
  }
}

TEST(HostRuntime, FanOutFanInRoutesPerEdgePackets) {
  // src emits distinct packets per out-edge; the sink checks both arrive.
  TaskGraph g("diamond");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(0, 2, 64.0);
  g.add_edge(1, 3, 64.0);
  g.add_edge(2, 3, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(4, 0);
  m.assign(1, 1);
  m.assign(2, 2);
  m.assign(3, 3);

  std::atomic<bool> mismatch{false};
  auto passthrough = [](const TaskInputs& in) {
    return std::vector<Packet>{Packet(*in.inputs[0][0])};
  };
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance), pack(-in.instance)};
      },
      passthrough, passthrough,
      [&](const TaskInputs& in) {
        const std::int64_t a = unpack(*in.inputs[0][0]);
        const std::int64_t b = unpack(*in.inputs[1][0]);
        if (a != in.instance || b != -in.instance) mismatch = true;
        return std::vector<Packet>{};
      }};
  RunOptions opts;
  opts.instances = 800;
  run_stream(ss, m, tasks, opts);
  EXPECT_FALSE(mismatch.load());
}

TEST(HostRuntime, BufferOccupancyNeverExceedsAnalysisDepth) {
  TaskGraph g("chain4");
  for (int i = 0; i < 4; ++i) g.add_task(make_task(0.01e-3, i == 2 ? 1 : 0));
  for (int i = 0; i + 1 < 4; ++i) g.add_edge(i, i + 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(4, 0);
  for (TaskId t = 0; t < 4; ++t) m.assign(t, t);
  std::vector<TaskFunction> tasks(4, [](const TaskInputs& in) {
    return in.inputs.empty()
               ? std::vector<Packet>{pack(in.instance)}
               : std::vector<Packet>{Packet(*in.inputs[0][0])};
  });
  tasks[3] = [](const TaskInputs&) { return std::vector<Packet>{}; };
  RunOptions opts;
  opts.instances = 1500;
  const RunStats stats = run_stream(ss, m, tasks, opts);
  ASSERT_EQ(stats.max_buffer_occupancy.size(), g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_LE(stats.max_buffer_occupancy[e], ss.buffer_depth(e)) << e;
    EXPECT_GE(stats.max_buffer_occupancy[e], 1) << e;
  }
}

TEST(HostRuntime, CoLocatedGraphStillRunsSingleThreaded) {
  TaskGraph g("pair");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  std::atomic<std::int64_t> sum{0};
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance)};
      },
      [&](const TaskInputs& in) {
        sum += unpack(*in.inputs[0][0]);
        return std::vector<Packet>{};
      }};
  RunOptions opts;
  opts.instances = 100;
  run_stream(ss, ppe_only_mapping(g), tasks, opts);
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(HostRuntime, TaskExceptionPropagates) {
  TaskGraph g("boom");
  g.add_task(make_task());
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) -> std::vector<Packet> {
        if (in.instance == 5) throw std::runtime_error("task blew up");
        return {};
      }};
  RunOptions opts;
  opts.instances = 100;
  EXPECT_THROW(run_stream(ss, ppe_only_mapping(g), tasks, opts),
               std::runtime_error);
}

TEST(HostRuntime, TaskExceptionAcrossPesShutsDownAllWorkers) {
  // The failing task runs on its own PE while producer and consumer occupy
  // two others.  When it throws, the peers are typically asleep on the
  // buffer condition variable (the consumer starved, the producer
  // eventually back-pressured); the runtime must wake and join every
  // worker, then rethrow the task's exception — not deadlock, and not
  // std::terminate from a leaked exception in a thread body.
  TaskGraph g("boom3");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(1, 2, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(3, 0);
  m.assign(1, 1);
  m.assign(2, 2);

  std::atomic<std::int64_t> consumed{0};
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance)};
      },
      [](const TaskInputs& in) -> std::vector<Packet> {
        if (in.instance == 40) throw std::runtime_error("mid-stream failure");
        return {Packet(*in.inputs[0][0])};
      },
      [&](const TaskInputs&) {
        ++consumed;
        return std::vector<Packet>{};
      }};
  RunOptions opts;
  opts.instances = 5000;
  try {
    run_stream(ss, m, tasks, opts);
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "mid-stream failure");
  }
  // The consumer saw at most the instances that were committed before the
  // failure; the stream must not have run to completion.
  EXPECT_LT(consumed.load(), 5000);
}

TEST(HostRuntime, FirstOfConcurrentFailuresIsPropagated) {
  // Two independent chains on four PEs, both of which throw.  Whichever
  // worker records its exception first wins; the other must still drain
  // cleanly.  Either message is acceptable — the property under test is
  // that exactly one propagates and the join completes.
  TaskGraph g("twoboom");
  for (int i = 0; i < 4; ++i) g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(2, 3, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(4, 0);
  for (TaskId t = 0; t < 4; ++t) m.assign(t, t);

  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance)};
      },
      [](const TaskInputs& in) -> std::vector<Packet> {
        if (in.instance == 10) throw std::runtime_error("chain A failed");
        return {};
      },
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance)};
      },
      [](const TaskInputs& in) -> std::vector<Packet> {
        if (in.instance == 10) throw std::runtime_error("chain B failed");
        return {};
      }};
  RunOptions opts;
  opts.instances = 2000;
  try {
    run_stream(ss, m, tasks, opts);
    FAIL() << "expected a task exception to propagate";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what == "chain A failed" || what == "chain B failed") << what;
  }
}

TEST(HostRuntime, WrongOutputArityIsAnError) {
  TaskGraph g("pair");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs&) { return std::vector<Packet>{}; },  // missing!
      [](const TaskInputs&) { return std::vector<Packet>{}; }};
  RunOptions opts;
  opts.instances = 10;
  EXPECT_THROW(run_stream(ss, ppe_only_mapping(g), tasks, opts), Error);
}

TEST(HostRuntime, ValidatesConfiguration) {
  TaskGraph g("solo");
  g.add_task(make_task());
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  EXPECT_THROW(run_stream(ss, ppe_only_mapping(g), {}, {}), Error);
  std::vector<TaskFunction> null_task = {nullptr};
  EXPECT_THROW(run_stream(ss, ppe_only_mapping(g), null_task, {}), Error);
  std::vector<TaskFunction> ok = {
      [](const TaskInputs&) { return std::vector<Packet>{}; }};
  RunOptions bad;
  bad.instances = 0;
  EXPECT_THROW(run_stream(ss, ppe_only_mapping(g), ok, bad), Error);
}

TEST(HostRuntime, MilpMappingRunsRealWorkEndToEnd) {
  // Full-stack: MILP mapping on a generated graph, every task a real
  // checksum over its inputs, verified at the sink.
  TaskGraph g("pipeline");
  const TaskId src = g.add_task(make_task());
  const TaskId a = g.add_task(make_task());
  const TaskId b = g.add_task(make_task(0.1e-3, 1));
  const TaskId join = g.add_task(make_task());
  g.add_edge(src, a, 256.0);
  g.add_edge(src, b, 256.0);
  g.add_edge(a, join, 256.0);
  g.add_edge(b, join, 256.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_with_spes(3));
  mapping::MilpMapperOptions opts;
  opts.milp.time_limit_seconds = 10.0;
  const Mapping m = mapping::solve_optimal_mapping(ss, opts).mapping;

  std::atomic<std::int64_t> checked{0};
  std::atomic<bool> mismatch{false};
  std::vector<TaskFunction> tasks(4);
  tasks[src] = [](const TaskInputs& in) {
    return std::vector<Packet>{pack(in.instance), pack(in.instance)};
  };
  tasks[a] = [](const TaskInputs& in) {
    return std::vector<Packet>{pack(unpack(*in.inputs[0][0]) + 7)};
  };
  tasks[b] = [](const TaskInputs& in) {
    // peek=1: add the next instance when it exists.
    std::int64_t v = unpack(*in.inputs[0][0]);
    if (in.inputs[0][1] != nullptr) v += unpack(*in.inputs[0][1]);
    return std::vector<Packet>{pack(v)};
  };
  tasks[join] = [&](const TaskInputs& in) {
    const std::int64_t i = in.instance;
    const std::int64_t expect_a = i + 7;
    const std::int64_t expect_b = i + (i + 1 < in.stream_length ? i + 1 : 0);
    if (unpack(*in.inputs[0][0]) != expect_a ||
        unpack(*in.inputs[1][0]) != expect_b) {
      mismatch = true;
    }
    ++checked;
    return std::vector<Packet>{};
  };
  RunOptions run_opts;
  run_opts.instances = 1000;
  run_stream(ss, m, tasks, run_opts);
  EXPECT_EQ(checked.load(), 1000);
  EXPECT_FALSE(mismatch.load());
}

// -- Telemetry (obs::Counters) ----------------------------------------------

/// Each worker's running time (its awake spans) and injected stalls lie
/// inside the run, each instant counted once: every PE that ran a task
/// has 0 < compute + overhead <= wall.
void expect_busy_within_wall(const RunStats& stats) {
  for (PeId pe = 0; pe < stats.counters.pe.size(); ++pe) {
    const obs::PeCounters& c = stats.counters.pe[pe];
    if (c.tasks_executed == 0) continue;
    const double busy = c.compute_seconds + c.overhead_seconds;
    EXPECT_GT(busy, 0.0) << "PE " << pe;
    EXPECT_LE(busy, stats.wall_seconds) << "PE " << pe;
  }
}

TEST(HostRuntime, TelemetryCountsExecutionsAndPacketBytesPerPe) {
  // source -> mid -> sink over three PEs; every packet is 8 bytes, both
  // edges are remote, so the byte attribution has a closed form.
  TaskGraph g("telemetry3");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(1, 2, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(3, 0);
  m.assign(1, 1);
  m.assign(2, 2);
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance)};
      },
      [](const TaskInputs& in) {
        return std::vector<Packet>{Packet(*in.inputs[0][0])};
      },
      [](const TaskInputs&) { return std::vector<Packet>{}; }};
  RunOptions opts;
  opts.instances = 1000;
  const RunStats stats = run_stream(ss, m, tasks, opts);

  const auto n = static_cast<std::uint64_t>(opts.instances);
  const double packet_bytes = 8.0 * static_cast<double>(n);
  ASSERT_EQ(stats.counters.pe.size(), ss.platform().pe_count());
  EXPECT_EQ(stats.counters.domain, obs::TimeDomain::kWall);
  for (PeId pe = 0; pe < 3; ++pe) {
    EXPECT_EQ(stats.counters.pe[pe].tasks_executed, n) << pe;
  }
  EXPECT_EQ(stats.counters.total_executions(), stats.tasks_executed);
  // Packets leave through the producer's out interface and arrive
  // through the consumer's in interface; local traffic counts nowhere.
  EXPECT_DOUBLE_EQ(stats.counters.pe[0].bytes_out, packet_bytes);
  EXPECT_DOUBLE_EQ(stats.counters.pe[0].bytes_in, 0.0);
  EXPECT_DOUBLE_EQ(stats.counters.pe[1].bytes_in, packet_bytes);
  EXPECT_DOUBLE_EQ(stats.counters.pe[1].bytes_out, packet_bytes);
  EXPECT_DOUBLE_EQ(stats.counters.pe[2].bytes_in, packet_bytes);
  EXPECT_DOUBLE_EQ(stats.counters.pe[2].bytes_out, 0.0);
  // Receiver-reads protocol: the consumer issues one transfer per remote
  // input instance.
  EXPECT_EQ(stats.counters.pe[1].transfers_issued, n);
  EXPECT_EQ(stats.counters.pe[2].transfers_issued, n);
  EXPECT_EQ(stats.counters.total_transfers(), 2 * n);
  // Every instance got a completion stamp, in nondecreasing wall time.
  ASSERT_EQ(stats.counters.instances_completed(), n);
  for (std::size_t i = 1; i < stats.counters.instance_completion.size(); ++i) {
    EXPECT_GE(stats.counters.instance_completion[i],
              stats.counters.instance_completion[i - 1]);
  }
  EXPECT_GT(stats.counters.elapsed_seconds, 0.0);
  expect_busy_within_wall(stats);
  opts.record_trace = true;
  expect_busy_within_wall(run_stream(ss, m, tasks, opts));
  // One worker that never sleeps: its one awake span covers nearly the
  // whole run, so counting it twice would exceed the wall time.
  opts.instances = 20000;
  for (const bool traced : {false, true}) {
    opts.record_trace = traced;
    const RunStats solo = run_stream(ss, ppe_only_mapping(g), tasks, opts);
    EXPECT_EQ(solo.counters.pe[0].tasks_executed, 3u * 20000u);
    expect_busy_within_wall(solo);
  }
}

TEST(HostRuntime, TelemetryRunningTimeCoversBodiesButNotSleep) {
  // The source's body takes 2 ms an instance; the sink's takes nothing, so
  // its worker sleeps through nearly all of the run.
  TaskGraph g("slow-source");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(2, 0);
  m.assign(1, 1);
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return std::vector<Packet>{pack(in.instance)};
      },
      [](const TaskInputs&) { return std::vector<Packet>{}; }};
  RunOptions opts;
  opts.instances = 20;
  for (const bool traced : {false, true}) {
    opts.record_trace = traced;
    const RunStats stats = run_stream(ss, m, tasks, opts);
    expect_busy_within_wall(stats);
    EXPECT_GE(stats.counters.pe[0].compute_seconds, 20 * 2e-3);
    EXPECT_LT(stats.counters.pe[1].compute_seconds, 0.5 * stats.wall_seconds);
  }
}

TEST(HostRuntime, TelemetryLocalEdgesCountNoInterfaceBytes) {
  TaskGraph g("local-pair");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance)};
      },
      [](const TaskInputs&) { return std::vector<Packet>{}; }};
  RunOptions opts;
  opts.instances = 200;
  const RunStats stats = run_stream(ss, ppe_only_mapping(g), tasks, opts);
  for (const obs::PeCounters& c : stats.counters.pe) {
    EXPECT_DOUBLE_EQ(c.bytes_in, 0.0);
    EXPECT_DOUBLE_EQ(c.bytes_out, 0.0);
    EXPECT_EQ(c.transfers_issued, 0u);
  }
  EXPECT_EQ(stats.counters.pe[0].tasks_executed, 400u);
}

TEST(HostRuntime, TelemetryTraceRecordsEveryExecutionWhenEnabled) {
  TaskGraph g("traced");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(2, 0);
  m.assign(1, 1);
  std::vector<TaskFunction> tasks = {
      [](const TaskInputs& in) {
        return std::vector<Packet>{pack(in.instance)};
      },
      [](const TaskInputs&) { return std::vector<Packet>{}; }};
  RunOptions opts;
  opts.instances = 300;
  opts.record_trace = true;
  const RunStats stats = run_stream(ss, m, tasks, opts);

  ASSERT_EQ(stats.trace.size(), 2u * 300u);
  std::vector<std::size_t> per_task(2, 0);
  for (const obs::TraceEvent& e : stats.trace) {
    EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kCompute);
    ASSERT_GE(e.task, 0);
    ASSERT_LT(e.task, 2);
    ++per_task[static_cast<std::size_t>(e.task)];
    EXPECT_EQ(e.pe, m.pe_of(static_cast<TaskId>(e.task)));
    EXPECT_GE(e.end, e.start);
    EXPECT_GE(e.start, 0.0);
    EXPECT_EQ(obs::event_label(g, e),
              g.task(static_cast<TaskId>(e.task)).name);
  }
  EXPECT_EQ(stats.trace.capacity(), stats.trace.size());
  EXPECT_EQ(per_task[0], 300u);
  EXPECT_EQ(per_task[1], 300u);

  // The shared writer accepts runtime events (wall-seconds timestamps).
  const std::string json =
      obs::chrome_trace_json(stats.trace, g, ss.platform());
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // Off by default.
  RunOptions plain;
  plain.instances = 10;
  EXPECT_TRUE(run_stream(ss, m, tasks, plain).trace.empty());
}

TEST(HostRuntime, TelemetryFlushesExactlyOnceOnFailureShutdown) {
  // A worker that throws mid-stream still shuts down cleanly, and so
  // does every draining peer: the run joins them all and rethrows the
  // task's exception (worker counters are only ever read after the join,
  // by assignment into their PE's slot).  Run it several times to give
  // interleavings a chance (and TSan, under the CELLSTREAM_TSAN build, a
  // race-free execution to certify).  A failed run returns no counters;
  // its workers leave through the same exit, which closes their last
  // awake span, as those of the completed twin run checked after it.
  TaskGraph g("flaky");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(1, 2, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(3, 0);
  m.assign(1, 1);
  m.assign(2, 2);
  for (int round = 0; round < 10; ++round) {
    std::int64_t fail_at = 25;
    std::vector<TaskFunction> tasks = {
        [](const TaskInputs& in) {
          return std::vector<Packet>{pack(in.instance)};
        },
        [&fail_at](const TaskInputs& in) -> std::vector<Packet> {
          if (in.instance == fail_at) throw std::runtime_error("boom");
          return {Packet(*in.inputs[0][0])};
        },
        [](const TaskInputs&) { return std::vector<Packet>{}; }};
    RunOptions opts;
    opts.instances = 4000;
    opts.record_trace = round % 2 == 0;
    try {
      run_stream(ss, m, tasks, opts);
      FAIL() << "expected the task exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    fail_at = -1;
    expect_busy_within_wall(run_stream(ss, m, tasks, opts));
  }
}

// -- Lock-free engine: rings, ownership, wake-ups, completion, watchdog ---

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Checksum bodies over any graph: instance i of task t hashes t, i and
/// every packet of its peek window, and sends the hash on each out-edge;
/// sinks record theirs.  serial() evaluates the same dataflow on one
/// thread, so the run's sink hashes must equal it exactly.
struct ChecksumStream {
  const TaskGraph& graph;
  std::int64_t n;
  std::vector<std::vector<std::uint64_t>> sink_hashes;
  std::vector<TaskFunction> bodies;

  ChecksumStream(const TaskGraph& g, std::int64_t instances,
                 std::function<void(TaskId, std::int64_t)> before = {})
      : graph(g), n(instances) {
    const std::vector<TaskId> sinks = graph.sinks();
    sink_hashes.assign(sinks.size(),
                       std::vector<std::uint64_t>(static_cast<std::size_t>(n)));
    for (TaskId t = 0; t < graph.task_count(); ++t) {
      const std::size_t outputs = graph.out_edges(t).size();
      std::uint64_t* record = nullptr;
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        if (sinks[s] == t) record = sink_hashes[s].data();
      }
      bodies.push_back([t, outputs, record, before](const TaskInputs& in) {
        if (before) before(t, in.instance);
        std::uint64_t h = fnv_word(1469598103934665603ull, t);
        h = fnv_word(h, static_cast<std::uint64_t>(in.instance));
        for (const auto& window : in.inputs) {
          for (const Packet* p : window) {
            if (p != nullptr) h = fnv_word(h, static_cast<std::uint64_t>(unpack(*p)));
          }
        }
        if (record != nullptr) record[in.instance] = h;
        return std::vector<Packet>(outputs, pack(static_cast<std::int64_t>(h)));
      });
    }
  }

  std::vector<std::vector<std::uint64_t>> serial() const {
    const auto count = static_cast<std::size_t>(n);
    std::vector<std::vector<std::uint64_t>> value(graph.task_count());
    for (TaskId t : graph.topological_order()) {
      value[t].resize(count);
      for (std::int64_t i = 0; i < n; ++i) {
        std::uint64_t h = fnv_word(1469598103934665603ull, t);
        h = fnv_word(h, static_cast<std::uint64_t>(i));
        for (EdgeId e : graph.in_edges(t)) {
          for (int d = 0; d <= graph.task(t).peek && i + d < n; ++d) {
            h = fnv_word(h, value[graph.edge(e).from][static_cast<std::size_t>(i + d)]);
          }
        }
        value[t][static_cast<std::size_t>(i)] = h;
      }
    }
    std::vector<std::vector<std::uint64_t>> sinks;
    for (TaskId t : graph.sinks()) sinks.push_back(value[t]);
    return sinks;
  }
};

void expect_stream_integrity(const TaskGraph& graph, const RunStats& stats,
                             std::int64_t n) {
  for (const check::Violation& v : check::check_stream_integrity(
           graph, check::accounting_of(stats), n)) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(HostRuntime, NineWorkersOversubscribedMatchSerialEvaluation) {
  // Paper graph 0 on QS22 with 8 SPEs: GREEDYMEM uses all nine PEs, so
  // nine workers share however many cores the host has.
  TaskGraph g = gen::paper_graph(0);
  gen::set_ccr(g, 0.775);
  const SteadyStateAnalysis ss(g, platforms::qs22_with_spes(8));
  const Mapping m = mapping::greedy_mem(ss);
  const std::int64_t n = 5000;
  ChecksumStream stream(g, n);
  RunOptions opts;
  opts.instances = n;
  const RunStats stats = run_stream(ss, m, stream.bodies, opts);

  std::size_t workers = 0;
  for (const obs::PeCounters& c : stats.counters.pe) {
    if (c.tasks_executed > 0) ++workers;
  }
  EXPECT_EQ(workers, 9u);
  EXPECT_EQ(stats.tasks_executed, g.task_count() * static_cast<std::uint64_t>(n));
  EXPECT_TRUE(stream.sink_hashes == stream.serial());
  expect_stream_integrity(g, stats, n);
}

TEST(HostRuntime, RingsWrapAroundManyTimesUnderPeek) {
  // src -> look(peek 2) -> mid -> sink, plus src -> sink, on four PEs.
  TaskGraph g("wrap");
  g.add_task(make_task());
  g.add_task(make_task(0.1e-3, 2));
  g.add_task(make_task(0.1e-3, 1));
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(1, 2, 64.0);
  g.add_edge(2, 3, 64.0);
  g.add_edge(0, 3, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(4, 0);
  for (TaskId t = 0; t < 4; ++t) m.assign(t, t);
  std::int64_t smallest = ss.buffer_depth(0);
  for (EdgeId e = 1; e < g.edge_count(); ++e) {
    smallest = std::min(smallest, ss.buffer_depth(e));
  }
  const std::int64_t n = 1000 * smallest + 7;  // ends mid-lap
  ChecksumStream stream(g, n);
  RunOptions opts;
  opts.instances = n;
  const RunStats stats = run_stream(ss, m, stream.bodies, opts);

  EXPECT_TRUE(stream.sink_hashes == stream.serial());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_LE(stats.max_buffer_occupancy[e], ss.buffer_depth(e)) << e;
    EXPECT_EQ(stats.edge_produced[e], n) << e;
    EXPECT_EQ(stats.edge_delivered[e], n) << e;
  }
  expect_stream_integrity(g, stats, n);
}

TEST(HostRuntime, AlternatingChainWithRandomSleepsLosesNoWakeUp) {
  // Six tasks alternating between two PEs: every commit hands work to the
  // other worker.  Round 0 has empty bodies, so both workers fall asleep
  // and wake thousands of times a second; in the later rounds seeded random
  // sleeps put each worker to sleep at varying points of the
  // handshake.  A lost wake-up stalls the stream, which the watchdog turns
  // into a failure.
  TaskGraph g("pingpong");
  for (int t = 0; t < 6; ++t) g.add_task(make_task(0.1e-3, t == 3 ? 1 : 0));
  for (int t = 0; t + 1 < 6; ++t) g.add_edge(t, t + 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(6, 0);
  for (TaskId t = 0; t < 6; ++t) m.assign(t, t % 2);
  for (int round = 0; round < 3; ++round) {
    const auto pause = [round](TaskId t, std::int64_t i) {
      if (round == 0) return;
      const std::uint64_t r = fnv_word(fnv_word(round, t), static_cast<std::uint64_t>(i));
      if (r % 4 == 0) std::this_thread::sleep_for(std::chrono::microseconds(r % 150));
    };
    const std::int64_t n = round == 0 ? 5000 : 1200;
    ChecksumStream stream(g, n, pause);
    RunOptions opts;
    opts.instances = n;
    opts.wall_timeout_seconds = 20.0;
    const RunStats stats = run_stream(ss, m, stream.bodies, opts);
    EXPECT_TRUE(stream.sink_hashes == stream.serial()) << "round " << round;
    expect_stream_integrity(g, stats, n);
  }
}

/// Spin until `flag` reaches `at_least`.  Gives up after five seconds, or
/// at once after an earlier give-up, and records it in `stuck`: a body
/// blocked for good would hang the run instead of failing the test.
void await_at_least(const std::atomic<std::int64_t>& flag,
                    std::int64_t at_least, std::atomic<bool>& stuck) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (flag.load() < at_least) {
    if (stuck.load() || std::chrono::steady_clock::now() > give_up) {
      stuck = true;
      return;
    }
    std::this_thread::yield();
  }
}

void spin_for(std::chrono::nanoseconds span) {
  const auto until = std::chrono::steady_clock::now() + span;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(HostRuntime, RendezvousPipelineLosesNoWakeUpAtAnyCommitOffset) {
  // source (PE 0) -> sink (PE 1).  Source instance i+1 and sink instance i
  // meet: each body records its start and waits until the other body has
  // started.  So each worker's next instance needs the other's latest
  // commit, and no later commit can make up for a missed wake-up: a worker
  // that sleeps through one leaves its peer blocked in a body.  After the
  // meeting one side spins for an offset swept over -300 .. +300 ns in
  // 5 ns steps, 200 times, so commits land all over the other worker's
  // select-then-sleep path; a worker that sleeps without rechecking for
  // work after raising its asleep flag is caught there (in most runs on a
  // multi-core host: the race still needs the two threads on two cores).
  TaskGraph g("rendezvous");
  g.add_task(make_task());
  g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(2, 0);
  m.assign(1, 1);
  constexpr std::int64_t kOffsets = 121;
  const auto offset = [](std::int64_t i) {
    return std::chrono::nanoseconds(5 * (i % kOffsets) - 300);
  };
  std::atomic<std::int64_t> source_started{-1};
  std::atomic<std::int64_t> sink_started{-1};
  std::atomic<bool> stuck{false};
  const std::int64_t n = 200 * kOffsets;
  std::vector<TaskFunction> tasks = {
      [&](const TaskInputs& in) {
        source_started = in.instance;
        await_at_least(sink_started, in.instance - 1, stuck);
        spin_for(offset(in.instance));
        return std::vector<Packet>{pack(in.instance)};
      },
      [&](const TaskInputs& in) {
        sink_started = in.instance;
        if (in.instance + 1 < in.stream_length) {
          await_at_least(source_started, in.instance + 1, stuck);
          spin_for(-offset(in.instance + 1));
        }
        EXPECT_EQ(unpack(*in.inputs[0][0]), in.instance);
        return std::vector<Packet>{};
      }};
  RunOptions opts;
  opts.instances = n;
  const RunStats stats = run_stream(ss, m, tasks, opts);
  EXPECT_FALSE(stuck.load()) << "a worker slept through its wake-up";
  EXPECT_EQ(stats.tasks_executed, 2u * static_cast<std::uint64_t>(n));
  expect_stream_integrity(g, stats, n);
}

TEST(HostRuntime, CompletionStampsOnePerInstanceInStreamOrder) {
  // Two sinks on different PEs race to advance the completion frontier.
  TaskGraph g("two-sinks");
  for (int t = 0; t < 5; ++t) g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(1, 2, 64.0);
  g.add_edge(0, 3, 64.0);
  g.add_edge(3, 4, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(5, 0);
  m.assign(1, 1);
  m.assign(2, 2);
  m.assign(3, 3);
  m.assign(4, 4);
  const std::int64_t n = 3000;
  ChecksumStream stream(g, n);
  RunOptions opts;
  opts.instances = n;
  const RunStats stats = run_stream(ss, m, stream.bodies, opts);

  const std::vector<double>& stamps = stats.counters.instance_completion;
  ASSERT_EQ(stamps.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    ASSERT_GE(stamps[i], stamps[i - 1]) << i;
  }
  EXPECT_GT(stamps.front(), 0.0);
  EXPECT_LE(stamps.back(), stats.wall_seconds);
  const double steady = stats.counters.steady_throughput();
  EXPECT_TRUE(std::isfinite(steady)) << steady;
  EXPECT_GT(steady, 0.0);
}

TEST(CompletionFrontier, RacingStepsStillYieldStampsInStreamOrder) {
  // Two sinks, four instances.  Sink 0's step moves the frontier past
  // instance 0, then stalls in its clock read; meanwhile sink 1's step
  // moves it past instance 1 and stamps that one earlier.  The stamps
  // handed out must still be non-decreasing.
  CompletionFrontier frontier(2, 4);
  EXPECT_FALSE(frontier.commit(1, 1, [] { return 0.5; }));
  EXPECT_EQ(frontier.complete(), 0);
  std::atomic<bool> in_clock{false};
  std::atomic<bool> overtaken{false};
  std::thread slow([&] {
    frontier.commit(0, 3, [&] {
      in_clock = true;
      in_clock.notify_one();
      overtaken.wait(false);
      return 2.0;
    });
  });
  in_clock.wait(false);
  EXPECT_EQ(frontier.complete(), 1);
  EXPECT_FALSE(frontier.commit(1, 2, [] { return 1.0; }));
  EXPECT_EQ(frontier.complete(), 2);
  overtaken = true;
  overtaken.notify_one();
  slow.join();
  EXPECT_FALSE(frontier.commit(1, 4, [] { return 3.0; }));
  EXPECT_TRUE(frontier.commit(0, 4, [] { return 3.0; }));
  EXPECT_TRUE(frontier.done());
  EXPECT_EQ(frontier.take_stamps(), (std::vector<double>{2.0, 2.0, 3.0, 3.0}));
}

TEST(HostRuntime, WatchdogTripsWithoutAFaultPlan) {
  // A body that blocks well past the window, no fault plan involved: the
  // watchdog on the calling thread must stop the run and say so.
  TaskGraph g("stuck");
  for (int t = 0; t < 3; ++t) g.add_task(make_task());
  g.add_edge(0, 1, 64.0);
  g.add_edge(1, 2, 64.0);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  Mapping m(3, 0);
  m.assign(1, 1);
  m.assign(2, 2);
  ChecksumStream stream(g, 400, [](TaskId t, std::int64_t i) {
    if (t == 1 && i == 30) std::this_thread::sleep_for(std::chrono::seconds(1));
  });
  RunOptions opts;
  opts.instances = 400;
  opts.wall_timeout_seconds = 0.2;
  try {
    run_stream(ss, m, stream.bodies, opts);
    FAIL() << "expected the watchdog to trip";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("heartbeats"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace cellstream::runtime
