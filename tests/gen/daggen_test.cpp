#include "gen/daggen.hpp"

#include <gtest/gtest.h>

namespace cellstream::gen {
namespace {

TEST(DagGen, ProducesRequestedTaskCount) {
  DagGenParams params;
  params.task_count = 37;
  const TaskGraph g = daggen_random(params);
  EXPECT_EQ(g.task_count(), 37u);
  EXPECT_NO_THROW(g.validate());
}

TEST(DagGen, DeterministicForSameSeed) {
  DagGenParams params;
  params.task_count = 30;
  params.seed = 99;
  const TaskGraph a = daggen_random(params);
  const TaskGraph b = daggen_random(params);
  EXPECT_EQ(a.to_text(), b.to_text());
}

TEST(DagGen, DifferentSeedsDiffer) {
  DagGenParams params;
  params.task_count = 30;
  params.seed = 1;
  const TaskGraph a = daggen_random(params);
  params.seed = 2;
  const TaskGraph b = daggen_random(params);
  EXPECT_NE(a.to_text(), b.to_text());
}

TEST(DagGen, FatControlsShape) {
  DagGenParams params;
  params.task_count = 60;
  params.seed = 4;
  params.fat = 0.05;
  const std::size_t deep = daggen_random(params).depth();
  params.fat = 0.9;
  const std::size_t shallow = daggen_random(params).depth();
  EXPECT_GT(deep, shallow);
}

TEST(DagGen, EveryNonSourceHasAParentAndEveryNonSinkAChild) {
  DagGenParams params;
  params.task_count = 50;
  params.seed = 12;
  params.fat = 0.5;
  const TaskGraph g = daggen_random(params);
  const auto sources = g.sources();
  const auto sinks = g.sinks();
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const bool is_source =
        std::find(sources.begin(), sources.end(), t) != sources.end();
    const bool is_sink =
        std::find(sinks.begin(), sinks.end(), t) != sinks.end();
    if (!is_source) {
      EXPECT_FALSE(g.in_edges(t).empty());
    }
    if (!is_sink) {
      EXPECT_FALSE(g.out_edges(t).empty());
    }
  }
}

TEST(DagGen, CostsWithinConfiguredRanges) {
  DagGenParams params;
  params.task_count = 40;
  params.seed = 8;
  const TaskGraph g = daggen_random(params);
  for (const Task& t : g.tasks()) {
    EXPECT_GE(t.wppe, params.wppe_min);
    EXPECT_LE(t.wppe, params.wppe_max);
    // wspe = wppe / speedup with speedup in [min, max].
    EXPECT_GE(t.wspe, t.wppe / params.spe_speedup_max - 1e-15);
    EXPECT_LE(t.wspe, t.wppe / params.spe_speedup_min + 1e-15);
    EXPECT_GE(t.peek, 0);
    EXPECT_LE(t.peek, 2);
  }
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.data_bytes, params.data_min);
    EXPECT_LE(e.data_bytes, params.data_max);
  }
}

TEST(DagGen, SourcesReadAndSinksWrite) {
  DagGenParams params;
  params.task_count = 25;
  params.seed = 3;
  const TaskGraph g = daggen_random(params);
  for (TaskId t : g.sources()) {
    EXPECT_DOUBLE_EQ(g.task(t).read_bytes, params.io_bytes);
  }
  for (TaskId t : g.sinks()) {
    EXPECT_DOUBLE_EQ(g.task(t).write_bytes, params.io_bytes);
  }
}

TEST(ChainGraph, IsALinearChain) {
  DagGenParams params;
  const TaskGraph g = chain_graph(10, params);
  EXPECT_EQ(g.task_count(), 10u);
  EXPECT_EQ(g.edge_count(), 9u);
  EXPECT_EQ(g.depth(), 9u);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
}

TEST(ForkJoin, HasExpectedShape) {
  DagGenParams params;
  const TaskGraph g = fork_join_graph(4, 3, params);
  EXPECT_EQ(g.task_count(), 1 + 4 * 3 + 1u);
  EXPECT_EQ(g.depth(), 4u);  // source -> 3 chain -> sink
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
}

TEST(PaperGraphs, MatchThePaperScales) {
  const TaskGraph g1 = paper_graph(0);
  const TaskGraph g2 = paper_graph(1);
  const TaskGraph g3 = paper_graph(2);
  EXPECT_EQ(g1.task_count(), 50u);
  EXPECT_EQ(g2.task_count(), 94u);
  EXPECT_EQ(g3.task_count(), 50u);
  EXPECT_EQ(g3.edge_count(), 49u);  // chain
  EXPECT_GT(g2.depth(), 3u);
  EXPECT_THROW(paper_graph(3), Error);
  // Deterministic across calls.
  EXPECT_EQ(paper_graph(0).to_text(), g1.to_text());
}

TEST(SetCcr, HitsPaperTargets) {
  for (int idx = 0; idx < 3; ++idx) {
    for (double target : kPaperCcrValues) {
      TaskGraph g = paper_graph(idx);
      set_ccr(g, target);
      EXPECT_NEAR(g.ccr(kPaperOpsRate), target, 1e-9) << "graph " << idx;
    }
  }
}

TEST(Diamond, ShapeAndConnectivity) {
  DagGenParams params;
  const TaskGraph g = diamond_graph(5, params);
  // Widths 1,2,3,2,1 -> 9 tasks.
  EXPECT_EQ(g.task_count(), 9u);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
  EXPECT_EQ(g.depth(), 4u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Diamond, SingleLevelIsOneTask) {
  const TaskGraph g = diamond_graph(1, DagGenParams{});
  EXPECT_EQ(g.task_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Diamond, RejectsEvenLevels) {
  EXPECT_THROW(diamond_graph(4, DagGenParams{}), Error);
  EXPECT_THROW(diamond_graph(0, DagGenParams{}), Error);
}

TEST(Diamond, EveryMiddleTaskConnected) {
  const TaskGraph g = diamond_graph(7, DagGenParams{});
  const auto sources = g.sources();
  const auto sinks = g.sinks();
  EXPECT_EQ(sources.size(), 1u);
  EXPECT_EQ(sinks.size(), 1u);
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const bool is_src = t == sources[0];
    const bool is_sink = t == sinks[0];
    if (!is_src) {
      EXPECT_FALSE(g.in_edges(t).empty()) << t;
    }
    if (!is_sink) {
      EXPECT_FALSE(g.out_edges(t).empty()) << t;
    }
  }
}

TEST(DagGen, RejectsBadParameters) {
  DagGenParams params;
  params.task_count = 0;
  EXPECT_THROW(daggen_random(params), Error);
  params.task_count = 10;
  params.fat = 1.5;
  EXPECT_THROW(daggen_random(params), Error);
  EXPECT_THROW(chain_graph(0, DagGenParams{}), Error);
  EXPECT_THROW(fork_join_graph(0, 3, DagGenParams{}), Error);
}

}  // namespace
}  // namespace cellstream::gen
