#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "gen/apps.hpp"
#include "mapping/heuristics.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace cellstream::sim {
namespace {

SimResult traced_run(std::size_t instances = 20) {
  const TaskGraph g = gen::audio_encoder_graph(2);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  const Mapping m = mapping::greedy_cpu(ss);
  SimOptions o;
  o.instances = instances;
  o.record_trace = true;
  return simulate(ss, m, o);
}

TEST(Trace, DisabledByDefault) {
  const TaskGraph g = gen::audio_encoder_graph(2);
  const SteadyStateAnalysis ss(g, platforms::qs22_single_cell());
  SimOptions o;
  o.instances = 5;
  const SimResult r = simulate(ss, mapping::greedy_cpu(ss), o);
  EXPECT_TRUE(r.trace.empty());
}

TEST(Trace, RecordsOneComputeEventPerTaskInstance) {
  const SimResult r = traced_run(20);
  std::size_t computes = 0;
  for (const obs::TraceEvent& e : r.trace) {
    if (e.kind == obs::TraceEvent::Kind::kCompute) ++computes;
  }
  // 9 tasks x 20 instances (audio encoder with 2 subband groups).
  EXPECT_EQ(computes, 9u * 20u);
}

TEST(Trace, IsReservedToItsExactEventCount) {
  // One event per task and per channel (remote fetch, memory read or
  // write) and instance: the simulator reserves exactly that.
  for (const std::size_t instances : {1u, 20u, 137u}) {
    const SimResult r = traced_run(instances);
    EXPECT_EQ(r.trace.capacity(), r.trace.size()) << instances;
    EXPECT_EQ(r.trace.size() % instances, 0u) << instances;
  }
}

TEST(Trace, PeIdsMustFitTheEvent) {
  const TaskGraph g = gen::audio_encoder_graph(2);
  CellPlatform wide = platforms::qs22_single_cell();
  wide.spe_count = 65536 - wide.ppe_count;
  EXPECT_NO_THROW(obs::ensure_traceable(g, wide, "simulate"));
  ++wide.spe_count;
  EXPECT_THROW(obs::ensure_traceable(g, wide, "simulate"), Error);
}

TEST(Trace, TransferEventsMatchDmaCount) {
  const SimResult r = traced_run(20);
  std::size_t transfers = 0;
  for (const obs::TraceEvent& e : r.trace) {
    if (e.kind == obs::TraceEvent::Kind::kTransfer) ++transfers;
  }
  EXPECT_EQ(transfers, r.dma_transfers);
}

TEST(Trace, EventsHaveSaneTimesAndInstances) {
  const SimResult r = traced_run(10);
  ASSERT_FALSE(r.trace.empty());
  for (const obs::TraceEvent& e : r.trace) {
    EXPECT_GE(e.start, 0.0);
    EXPECT_GE(e.end, e.start);
    EXPECT_LE(e.end, r.makespan * 1.001 + 1e-9);
    EXPECT_GE(e.instance, 0);
  }
}

TEST(Trace, LabelsComeFromTheGraph) {
  const TaskGraph g = gen::audio_encoder_graph(2);
  const SimResult r = traced_run(3);
  bool edge = false, read = false, write = false;
  for (const obs::TraceEvent& e : r.trace) {
    const std::string label = obs::event_label(g, e);
    switch (e.payload) {
      case obs::TraceEvent::Payload::kNone:
        EXPECT_EQ(label, g.task(static_cast<TaskId>(e.task)).name);
        break;
      case obs::TraceEvent::Payload::kEdge: {
        const Edge& edge_ref = g.edge(static_cast<EdgeId>(e.edge));
        EXPECT_EQ(label, g.task(edge_ref.from).name + "->" +
                             g.task(edge_ref.to).name);
        edge = true;
        break;
      }
      case obs::TraceEvent::Payload::kMemRead:
        EXPECT_EQ(label, "read:" + g.task(static_cast<TaskId>(e.task)).name);
        read = true;
        break;
      case obs::TraceEvent::Payload::kMemWrite:
        EXPECT_EQ(label, "write:" + g.task(static_cast<TaskId>(e.task)).name);
        write = true;
        break;
    }
  }
  EXPECT_TRUE(edge && read && write);

  // Ids outside the graph still get a label.
  obs::TraceEvent stray;
  stray.task = 99;
  EXPECT_EQ(obs::event_label(g, stray), "task 99");
  stray.kind = obs::TraceEvent::Kind::kTransfer;
  stray.payload = obs::TraceEvent::Payload::kEdge;
  stray.edge = -1;
  EXPECT_EQ(obs::event_label(g, stray), "edge -1");
}

TEST(Trace, ComputeEventsNeverOverlapOnOnePe) {
  const SimResult r = traced_run(15);
  // Group by PE and check pairwise disjointness (events are appended in
  // completion order, hence sorted by end; starts must follow suit).
  std::vector<double> last_end(16, -1.0);
  for (const obs::TraceEvent& e : r.trace) {
    if (e.kind != obs::TraceEvent::Kind::kCompute) continue;
    EXPECT_GE(e.start, last_end[e.pe] - 1e-12)
        << "task " << e.task << " overlaps on PE " << e.pe;
    last_end[e.pe] = e.end;
  }
}

TEST(ChromeTrace, ProducesValidLookingJson) {
  const SimResult r = traced_run(5);
  const CellPlatform p = platforms::qs22_single_cell();
  const std::string json =
      obs::chrome_trace_json(r.trace, gen::audio_encoder_graph(2), p);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("PPE0"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"transfer\""), std::string::npos);
  // Balanced braces (cheap structural sanity check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

/// One task named `name`, for events that label themselves through it.
TaskGraph one_task(const std::string& name) {
  TaskGraph graph("named");
  graph.add_task({name, 1e-3, 1e-3, 0, 0.0, 0.0, false});
  return graph;
}

TEST(ChromeTrace, EscapesSpecialCharacters) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent weird;
  weird.task = 0;
  weird.end = 1.0;
  events.push_back(weird);
  const std::string json = obs::chrome_trace_json(
      events, one_task("weird\"name\\"), platforms::qs22_single_cell());
  EXPECT_NE(json.find("weird\\\"name\\\\"), std::string::npos);
}

TEST(ChromeTrace, ClampsNegativeDurationsToZeroLength) {
  // A clock glitch must not poison the whole trace file: the writer
  // clamps the window to a zero-length event at its start time instead
  // of refusing to serialize (see also obs/trace_escape_test.cpp).
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent bad;
  bad.task = 0;
  bad.start = 2.0;
  bad.end = 1.0;
  events.push_back(bad);
  const std::string json = obs::chrome_trace_json(
      events, one_task("bad"), platforms::qs22_single_cell());
  EXPECT_NE(json.find("\"name\":\"bad\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);
}

}  // namespace
}  // namespace cellstream::sim
