#include "core/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace cellstream {
namespace {

Task simple_task(double wppe = 1.0, double wspe = 0.5) {
  Task t;
  t.wppe = wppe;
  t.wspe = wspe;
  return t;
}

TaskGraph diamond() {
  // T0 -> {T1, T2} -> T3
  TaskGraph g("diamond");
  for (int i = 0; i < 4; ++i) g.add_task(simple_task());
  g.add_edge(0, 1, 100.0);
  g.add_edge(0, 2, 200.0);
  g.add_edge(1, 3, 300.0);
  g.add_edge(2, 3, 400.0);
  return g;
}

TEST(TaskGraph, AddTaskAssignsSequentialIds) {
  TaskGraph g;
  EXPECT_EQ(g.add_task(simple_task()), 0u);
  EXPECT_EQ(g.add_task(simple_task()), 1u);
  EXPECT_EQ(g.task_count(), 2u);
}

TEST(TaskGraph, DefaultTaskNamesFollowIds) {
  TaskGraph g;
  g.add_task(Task{});
  g.add_task(Task{});
  EXPECT_EQ(g.task(0).name, "T0");
  EXPECT_EQ(g.task(1).name, "T1");
}

TEST(TaskGraph, ExplicitNameIsKept) {
  TaskGraph g;
  Task t;
  t.name = "filter";
  g.add_task(t);
  EXPECT_EQ(g.task(0).name, "filter");
}

TEST(TaskGraph, AddEdgeValidatesEndpoints) {
  TaskGraph g;
  g.add_task(simple_task());
  g.add_task(simple_task());
  EXPECT_THROW(g.add_edge(0, 2, 1.0), Error);
  EXPECT_THROW(g.add_edge(2, 0, 1.0), Error);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), Error);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), Error);
  EXPECT_NO_THROW(g.add_edge(0, 1, 1.0));
  EXPECT_THROW(g.add_edge(0, 1, 2.0), Error);  // duplicate
}

TEST(TaskGraph, AdjacencyLists) {
  const TaskGraph g = diamond();
  EXPECT_EQ(g.out_edges(0).size(), 2u);
  EXPECT_EQ(g.in_edges(0).size(), 0u);
  EXPECT_EQ(g.in_edges(3).size(), 2u);
  EXPECT_EQ(g.edge(g.out_edges(0)[0]).to, 1u);
}

TEST(TaskGraph, AdjacencyStaysAscendingByIdAcrossAppends) {
  // Edges added out of task order, with queries in between: each list
  // holds its edge ids ascending, as the order they were added in, and a
  // duplicate is rejected without touching either list.
  TaskGraph g;
  for (int i = 0; i < 3; ++i) g.add_task(simple_task());
  EXPECT_EQ(g.add_edge(1, 2, 1.0), 0u);
  EXPECT_EQ(g.add_edge(0, 2, 1.0), 1u);
  EXPECT_EQ(g.in_edges(2), (std::vector<EdgeId>{0, 1}));
  g.add_task(simple_task());
  EXPECT_TRUE(g.out_edges(3).empty());
  EXPECT_TRUE(g.in_edges(3).empty());
  EXPECT_EQ(g.add_edge(0, 3, 1.0), 2u);
  EXPECT_EQ(g.add_edge(0, 1, 1.0), 3u);
  EXPECT_EQ(g.add_edge(2, 3, 1.0), 4u);
  EXPECT_THROW(g.add_edge(0, 2, 5.0), Error);
  EXPECT_THROW(g.add_edge(2, 3, 5.0), Error);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.out_edges(0), (std::vector<EdgeId>{1, 2, 3}));
  EXPECT_EQ(g.out_edges(1), (std::vector<EdgeId>{0}));
  EXPECT_EQ(g.out_edges(2), (std::vector<EdgeId>{4}));
  EXPECT_EQ(g.in_edges(1), (std::vector<EdgeId>{3}));
  EXPECT_EQ(g.in_edges(2), (std::vector<EdgeId>{0, 1}));
  EXPECT_EQ(g.in_edges(3), (std::vector<EdgeId>{2, 4}));
  EXPECT_THROW(g.in_edges(4), Error);
}

TEST(TaskGraph, SourcesAndSinks) {
  const TaskGraph g = diamond();
  EXPECT_EQ(g.sources(), std::vector<TaskId>{0});
  EXPECT_EQ(g.sinks(), std::vector<TaskId>{3});
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  const TaskGraph g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const Edge& e : g.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

TEST(TaskGraph, TopologicalOrderDetectsCycle) {
  TaskGraph g;
  g.add_task(simple_task());
  g.add_task(simple_task());
  g.add_task(simple_task());
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  EXPECT_FALSE(g.is_acyclic());
  EXPECT_THROW(g.topological_order(), Error);
}

TEST(TaskGraph, ValidateRejectsNegativeAttributes) {
  TaskGraph g;
  Task t = simple_task();
  t.peek = -1;
  g.add_task(t);
  EXPECT_THROW(g.validate(), Error);
}

TEST(TaskGraph, ValidateRejectsEmptyGraph) {
  TaskGraph g;
  EXPECT_THROW(g.validate(), Error);
}

TEST(TaskGraph, DepthOfChainAndDiamond) {
  EXPECT_EQ(diamond().depth(), 2u);
  TaskGraph chain;
  for (int i = 0; i < 5; ++i) chain.add_task(simple_task());
  for (int i = 0; i + 1 < 5; ++i) chain.add_edge(i, i + 1, 1.0);
  EXPECT_EQ(chain.depth(), 4u);
}

TEST(TaskGraph, AggregateCosts) {
  const TaskGraph g = diamond();
  EXPECT_DOUBLE_EQ(g.total_wppe(), 4.0);
  EXPECT_DOUBLE_EQ(g.total_wspe(), 2.0);
  EXPECT_DOUBLE_EQ(g.total_data_bytes(), 1000.0);
}

TEST(TaskGraph, TotalDataIncludesMemoryTraffic) {
  TaskGraph g = diamond();
  g.task(0).read_bytes = 50.0;
  g.task(3).write_bytes = 25.0;
  EXPECT_DOUBLE_EQ(g.total_data_bytes(), 1075.0);
}

TEST(TaskGraph, CcrDefinition) {
  const TaskGraph g = diamond();
  // 1000 bytes / 2.0 SPE-seconds.
  EXPECT_DOUBLE_EQ(g.ccr(), 500.0);
  // With an operation rate, work is wspe * rate "operations".
  EXPECT_DOUBLE_EQ(g.ccr(1000.0), 0.5);
}

TEST(TaskGraph, ScaleToCcrHitsTargetExactly) {
  TaskGraph g = diamond();
  g.task(1).read_bytes = 10.0;
  g.scale_to_ccr(2.0, 1000.0);
  EXPECT_NEAR(g.ccr(1000.0), 2.0, 1e-12);
  // Computation costs untouched.
  EXPECT_DOUBLE_EQ(g.total_wspe(), 2.0);
}

TEST(TaskGraph, ScaleToCcrPreservesRelativeSizes) {
  TaskGraph g = diamond();
  const double ratio_before = g.edge(1).data_bytes / g.edge(0).data_bytes;
  g.scale_to_ccr(3.3, 1.0);
  const double ratio_after = g.edge(1).data_bytes / g.edge(0).data_bytes;
  EXPECT_NEAR(ratio_before, ratio_after, 1e-12);
}

TEST(TaskGraph, TextRoundTrip) {
  TaskGraph g = diamond();
  g.task(1).peek = 2;
  g.task(2).stateful = true;
  g.task(2).read_bytes = 12.5;
  g.task(3).write_bytes = 0.125;
  const TaskGraph back = TaskGraph::from_text(g.to_text());
  EXPECT_EQ(back.name(), "diamond");
  ASSERT_EQ(back.task_count(), g.task_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (TaskId t = 0; t < g.task_count(); ++t) {
    EXPECT_EQ(back.task(t).name, g.task(t).name);
    EXPECT_DOUBLE_EQ(back.task(t).wppe, g.task(t).wppe);
    EXPECT_DOUBLE_EQ(back.task(t).wspe, g.task(t).wspe);
    EXPECT_EQ(back.task(t).peek, g.task(t).peek);
    EXPECT_DOUBLE_EQ(back.task(t).read_bytes, g.task(t).read_bytes);
    EXPECT_DOUBLE_EQ(back.task(t).write_bytes, g.task(t).write_bytes);
    EXPECT_EQ(back.task(t).stateful, g.task(t).stateful);
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(back.edge(e).from, g.edge(e).from);
    EXPECT_EQ(back.edge(e).to, g.edge(e).to);
    EXPECT_DOUBLE_EQ(back.edge(e).data_bytes, g.edge(e).data_bytes);
  }
}

TEST(TaskGraph, FromTextRejectsGarbage) {
  EXPECT_THROW(TaskGraph::from_text("frobnicate everything"), Error);
  EXPECT_THROW(TaskGraph::from_text("task broken"), Error);
}

TEST(TaskGraph, FromTextSkipsCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "graph g\n"
      "\n"
      "task A wppe=1 wspe=2 peek=0 read=0 write=0 stateful=0\n";
  const TaskGraph g = TaskGraph::from_text(text);
  EXPECT_EQ(g.task_count(), 1u);
  EXPECT_DOUBLE_EQ(g.task(0).wspe, 2.0);
}

TEST(TaskGraph, DotOutputMentionsAllTasks) {
  const TaskGraph g = diamond();
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (TaskId t = 0; t < g.task_count(); ++t) {
    EXPECT_NE(dot.find(g.task(t).name), std::string::npos);
  }
  EXPECT_NE(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace cellstream
