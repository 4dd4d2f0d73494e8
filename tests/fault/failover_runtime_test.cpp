// The host runtime under fault injection: real task code, real threads,
// real sleeps — a fail-stop mid-stream must drain, remap, migrate and
// resume without losing or duplicating a value; transient DMA retries must
// never corrupt the dataflow; the progress watchdog must catch a genuine
// hang and must NOT fire on a slow-but-progressing stream.

#include "runtime/host_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "check/invariants.hpp"
#include "support/error.hpp"

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

/// source -> double -> verify chain on PEs 0, 1, 2.
struct Chain {
  TaskGraph graph{"chain3"};
  Mapping mapping{0, 0};
  std::atomic<std::int64_t> verified{0};
  std::atomic<bool> mismatch{false};
  std::vector<TaskFunction> tasks;

  Chain() {
    graph.add_task(make_task());
    graph.add_task(make_task());
    graph.add_task(make_task());
    graph.add_edge(0, 1, 64.0);
    graph.add_edge(1, 2, 64.0);
    mapping = Mapping(3, 0);
    mapping.assign(1, 1);
    mapping.assign(2, 2);
    tasks = {
        [](const TaskInputs& in) {
          return std::vector<Packet>{pack(in.instance * 3 + 1)};
        },
        [](const TaskInputs& in) {
          return std::vector<Packet>{pack(2 * unpack(*in.inputs[0][0]))};
        },
        [this](const TaskInputs& in) {
          if (unpack(*in.inputs[0][0]) != 2 * (in.instance * 3 + 1)) {
            mismatch = true;
          }
          ++verified;
          return std::vector<Packet>{};
        }};
  }
};

/// Injected stalls are overhead, not running time, and each instant of a
/// worker's run is counted once: every PE that ran a task has
/// 0 < compute + overhead <= wall.
void expect_busy_within_wall(const RunStats& stats) {
  for (PeId pe = 0; pe < stats.counters.pe.size(); ++pe) {
    const obs::PeCounters& c = stats.counters.pe[pe];
    if (c.tasks_executed == 0) continue;
    EXPECT_GT(c.compute_seconds, 0.0) << "PE " << pe;
    EXPECT_LE(c.compute_seconds + c.overhead_seconds, stats.wall_seconds)
        << "PE " << pe;
  }
}

TEST(FailoverRuntime, FailStopMidStreamLosesNoValue) {
  Chain chain;
  const SteadyStateAnalysis ss(chain.graph, platforms::qs22_single_cell());

  fault::FaultPlan plan;
  plan.pe_failure = fault::PeFailure{1, 100};  // PE hosting the doubler

  RunOptions options;
  options.instances = 300;
  options.fault_plan = &plan;
  const RunStats stats = run_stream(ss, chain.mapping, chain.tasks, options);

  // Every instance arrived exactly once with the right value.
  EXPECT_EQ(chain.verified.load(), 300);
  EXPECT_FALSE(chain.mismatch.load());
  EXPECT_EQ(stats.tasks_executed, 3u * 300u);

  // The failover actually ran and evacuated the dead PE.
  EXPECT_EQ(stats.faults.failovers, 1);
  EXPECT_EQ(stats.faults.failed_pe, 1);
  EXPECT_GE(stats.faults.migrated_tasks, 1);
  EXPECT_NE(stats.final_mapping.pe_of(1), 1u);
  expect_busy_within_wall(stats);

  // I8 on the runtime's own end-to-end accounting.
  const std::vector<check::Violation> violations =
      check::check_stream_integrity(chain.graph, check::accounting_of(stats),
                                    options.instances);
  for (const check::Violation& v : violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(FailoverRuntime, ConcurrentDmaRetriesNeverCorruptValues) {
  Chain chain;
  const SteadyStateAnalysis ss(chain.graph, platforms::qs22_single_cell());

  fault::FaultPlan plan;
  plan.seed = 13;
  plan.dma = {0.3, 4, 2.0e-5, 0.5};  // heavy retry pressure, tiny backoff

  RunOptions options;
  options.instances = 500;
  options.fault_plan = &plan;
  const RunStats stats = run_stream(ss, chain.mapping, chain.tasks, options);

  EXPECT_EQ(chain.verified.load(), 500);
  EXPECT_FALSE(chain.mismatch.load());
  EXPECT_GT(stats.faults.dma_retries, 0);
  EXPECT_GT(stats.faults.backoff_seconds, 0.0);
  expect_busy_within_wall(stats);

  const std::vector<check::Violation> violations =
      check::check_stream_integrity(chain.graph, check::accounting_of(stats),
                                    options.instances);
  for (const check::Violation& v : violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(FailoverRuntime, FailStopUnderDmaPressureStaysConsistent) {
  // The drain barrier must hold while transient retries are in flight —
  // the combination that pressures the frontier accounting hardest.
  Chain chain;
  const SteadyStateAnalysis ss(chain.graph, platforms::qs22_single_cell());

  fault::FaultPlan plan;
  plan.seed = 17;
  plan.pe_failure = fault::PeFailure{1, 80};
  plan.dma = {0.2, 4, 2.0e-5, 0.5};

  RunOptions options;
  options.instances = 250;
  options.fault_plan = &plan;
  options.failover_strategy = mapping::RemapStrategy::kGreedyCpu;
  const RunStats stats = run_stream(ss, chain.mapping, chain.tasks, options);

  EXPECT_EQ(chain.verified.load(), 250);
  EXPECT_FALSE(chain.mismatch.load());
  EXPECT_EQ(stats.faults.failovers, 1);
  EXPECT_GT(stats.faults.dma_retries, 0);
  const std::vector<check::Violation> violations =
      check::check_stream_integrity(chain.graph, check::accounting_of(stats),
                                    options.instances);
  for (const check::Violation& v : violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

// The runtime never waits on a solver: the MILP remap is refused on entry,
// before any worker starts, even when no fault would ever call for it.
TEST(FailoverRuntime, MilpStrategyIsRefusedBeforeTheStreamStarts) {
  Chain chain;
  const SteadyStateAnalysis ss(chain.graph, platforms::qs22_single_cell());
  RunOptions options;
  options.instances = 50;
  options.failover_strategy = mapping::RemapStrategy::kMilp;
  try {
    run_stream(ss, chain.mapping, chain.tasks, options);
    FAIL() << "expected the milp strategy to be refused";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_stream: the host runtime never waits on a solver; the "
              "'milp' failover strategy needs fault::run_with_failover");
  }
  EXPECT_EQ(chain.verified.load(), 0);
}

TEST(FailoverRuntime, WatchdogTripsOnAGenuineHang) {
  Chain chain;
  const SteadyStateAnalysis ss(chain.graph, platforms::qs22_single_cell());

  fault::FaultPlan plan;
  plan.hangs.push_back({1, 20, 2.0});  // 2 s stall, window is 0.3 s

  RunOptions options;
  options.instances = 200;
  options.fault_plan = &plan;
  options.wall_timeout_seconds = 0.3;
  try {
    run_stream(ss, chain.mapping, chain.tasks, options);
    FAIL() << "expected the watchdog to trip";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
        << e.what();
  }
}

TEST(FailoverRuntime, HangShorterThanTheWindowIsAbsorbedAndCounted) {
  Chain chain;
  const SteadyStateAnalysis ss(chain.graph, platforms::qs22_single_cell());

  fault::FaultPlan plan;
  plan.hangs.push_back({1, 20, 0.15});

  RunOptions options;
  options.instances = 100;
  options.fault_plan = &plan;
  options.wall_timeout_seconds = 5.0;
  const RunStats stats = run_stream(ss, chain.mapping, chain.tasks, options);

  EXPECT_EQ(chain.verified.load(), 100);
  EXPECT_EQ(stats.faults.hangs, 1);
  EXPECT_NEAR(stats.faults.hang_seconds, 0.15, 1e-9);
  EXPECT_DOUBLE_EQ(stats.counters.pe[1].overhead_seconds, 0.15);
  expect_busy_within_wall(stats);
}

TEST(FailoverRuntime, SlowButProgressingStreamNeverTripsTheWatchdog) {
  // Regression for the false-firing wall timeout: every task takes longer
  // than a naive fixed deadline would allow in aggregate, but each commit
  // rearms the watchdog, so the run completes.  Total body time here is
  // 120 instances x 3 tasks x 4 ms = 1.44 s of work against a 0.4 s
  // window — the old whole-run deadline semantics would abort it.
  Chain chain;
  const SteadyStateAnalysis ss(chain.graph, platforms::qs22_single_cell());

  std::vector<TaskFunction> slow_tasks = chain.tasks;
  for (std::size_t t = 0; t < slow_tasks.size(); ++t) {
    const TaskFunction inner = slow_tasks[t];
    slow_tasks[t] = [inner](const TaskInputs& in) {
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
      return inner(in);
    };
  }

  RunOptions options;
  options.instances = 120;
  options.wall_timeout_seconds = 0.4;
  const RunStats stats = run_stream(ss, chain.mapping, slow_tasks, options);

  EXPECT_EQ(chain.verified.load(), 120);
  EXPECT_FALSE(chain.mismatch.load());
  EXPECT_GT(stats.wall_seconds, options.wall_timeout_seconds);
}

TEST(FailoverRuntime, RuntimeAndSimulatorAgreeOnTheFaultSequence) {
  // The injector is shared and keyed by (seed, object, instance), so for
  // the same plan the runtime must observe exactly the retry count the
  // simulator predicted — interleaving-independent injection.
  Chain chain;
  const SteadyStateAnalysis ss(chain.graph, platforms::qs22_single_cell());

  fault::FaultPlan plan;
  plan.seed = 29;
  plan.dma = {0.15, 4, 2.0e-5, 0.5};

  sim::SimOptions sim_options;
  sim_options.instances = 400;
  sim_options.fault_plan = &plan;
  const sim::SimResult sim_run = sim::simulate(ss, chain.mapping, sim_options);

  RunOptions options;
  options.instances = 400;
  options.fault_plan = &plan;
  const RunStats run = run_stream(ss, chain.mapping, chain.tasks, options);

  // Same remote edges, same instances, same oracle: identical retry
  // totals.  (Backoff seconds differ: the simulator also draws for
  // main-memory traffic it models explicitly; edge retries are the
  // common denominator both executors inject per remote edge packet.)
  EXPECT_GT(run.faults.dma_retries, 0);
  EXPECT_EQ(run.faults.dma_retries, sim_run.faults.dma_retries);
}

}  // namespace
}  // namespace cellstream::runtime
