// Property tests of the Cell simulator against the analytic model, over
// randomized graphs, mappings and CCR levels.

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "sim/simulator.hpp"

namespace cellstream::sim {
namespace {

struct Scenario {
  int seed;
  double ccr;
  const char* strategy;
};

class SimProperties : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    gen::DagGenParams params;
    params.task_count = 18;
    params.seed = static_cast<std::uint64_t>(GetParam().seed) * 41 + 3;
    graph_ = gen::daggen_random(params);
    gen::set_ccr(graph_, GetParam().ccr);
    analysis_.emplace(graph_, platforms::qs22_single_cell());
    mapping_ = mapping::run_heuristic(GetParam().strategy, *analysis_);
    if (!analysis_->feasible(mapping_)) {
      mapping_ = mapping::ppe_only(*analysis_);
    }
    options_.instances = 600;
    options_.dispatch_overhead = 1e-9;  // isolate the resource model
    options_.dma_issue_overhead = 1e-9;
    options_.record_trace = true;
    result_ = simulate(*analysis_, mapping_, options_);
  }

  TaskGraph graph_;
  std::optional<SteadyStateAnalysis> analysis_;
  Mapping mapping_;
  SimOptions options_;
  SimResult result_;
};

TEST_P(SimProperties, CompletionTimesStrictlyIncrease) {
  for (std::size_t i = 1; i < result_.completion_times.size(); ++i) {
    EXPECT_GT(result_.completion_times[i], result_.completion_times[i - 1]);
  }
}

TEST_P(SimProperties, SteadyThroughputWithinAnalyticBound) {
  const double bound = analysis_->throughput(mapping_);
  EXPECT_LE(result_.steady_throughput, bound * 1.02);
}

TEST_P(SimProperties, SteadyThroughputReasonablyCloseToTheBound) {
  // With near-zero overheads the resource model is the only limiter; the
  // event-driven execution should reach most of the fluid bound.
  const double bound = analysis_->throughput(mapping_);
  EXPECT_GE(result_.steady_throughput, 0.70 * bound)
      << "strategy " << GetParam().strategy << " ccr " << GetParam().ccr;
}

TEST_P(SimProperties, DmaTransferCountMatchesTheMapping) {
  // Each remote edge fetches once per instance; each memory stream reads
  // or writes once per instance.
  std::uint64_t expected_per_instance = 0;
  for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
    if (mapping_.is_remote(graph_, e)) ++expected_per_instance;
  }
  for (const Task& t : graph_.tasks()) {
    if (t.read_bytes > 0.0) ++expected_per_instance;
    if (t.write_bytes > 0.0) ++expected_per_instance;
  }
  EXPECT_EQ(result_.dma_transfers, expected_per_instance * 600);
}

TEST_P(SimProperties, BusyTimeMatchesWorkDone) {
  // Each PE's accumulated busy time equals instances x per-instance work
  // of its tasks.
  const CellPlatform& p = analysis_->platform();
  for (PeId pe = 0; pe < p.pe_count(); ++pe) {
    double expected = 0.0;
    for (TaskId t : mapping_.tasks_on(pe)) {
      expected += p.is_ppe(pe) ? graph_.task(t).wppe : graph_.task(t).wspe;
    }
    EXPECT_NEAR(result_.counters.pe[pe].compute_seconds, expected * 600.0,
                1e-6 * (1.0 + expected * 600.0));
  }
}

TEST_P(SimProperties, MakespanIsLastCompletion) {
  EXPECT_DOUBLE_EQ(result_.makespan, result_.completion_times.back());
  EXPECT_GT(result_.counters.observed_throughput(), 0.0);
}

TEST_P(SimProperties, ReplayIsBitIdentical) {
  // The simulator must be deterministic: the same seed-derived graph,
  // mapping and options reproduce every completion time exactly (not just
  // within tolerance) — the contract the fuzz reproducer relies on.
  const SimResult replay = simulate(*analysis_, mapping_, options_);
  ASSERT_EQ(replay.completion_times.size(), result_.completion_times.size());
  for (std::size_t i = 0; i < replay.completion_times.size(); ++i) {
    ASSERT_EQ(replay.completion_times[i], result_.completion_times[i])
        << "instance " << i << " diverged on replay";
  }
  EXPECT_EQ(replay.makespan, result_.makespan);
  EXPECT_EQ(replay.dma_transfers, result_.dma_transfers);
  ASSERT_EQ(replay.trace.size(), result_.trace.size());
}

TEST_P(SimProperties, TraceDmaQueueDepthsRespectTheHardwareLimits) {
  // Independent sweep over the recorded transfers (deliberately not the
  // src/check implementation): at no instant may a SPE exceed its 16-deep
  // MFC stack, nor a source SPE its 8-deep PPE proxy stack.  Completions
  // free a slot before same-instant issues claim one.
  const CellPlatform& p = analysis_->platform();
  struct Delta {
    double time;
    int change;
  };
  std::vector<std::vector<Delta>> mfc(p.pe_count()), proxy(p.pe_count());
  for (const obs::TraceEvent& e : result_.trace) {
    if (e.kind != obs::TraceEvent::Kind::kTransfer) continue;
    if (p.is_spe(e.pe)) {
      mfc[e.pe].push_back({e.start, +1});
      mfc[e.pe].push_back({e.end, -1});
    } else if (e.payload == obs::TraceEvent::Payload::kEdge &&
               p.is_spe(e.src_pe)) {
      proxy[e.src_pe].push_back({e.start, +1});
      proxy[e.src_pe].push_back({e.end, -1});
    }
  }
  const auto max_depth = [](std::vector<Delta>& deltas) {
    std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
      return a.time != b.time ? a.time < b.time : a.change < b.change;
    });
    int depth = 0, peak = 0;
    for (const Delta& d : deltas) peak = std::max(peak, depth += d.change);
    return peak;
  };
  for (PeId pe = 0; pe < p.pe_count(); ++pe) {
    if (!p.is_spe(pe)) continue;
    EXPECT_LE(max_depth(mfc[pe]), static_cast<int>(p.spe_dma_slots))
        << p.pe_name(pe) << " MFC queue";
    EXPECT_LE(max_depth(proxy[pe]), static_cast<int>(p.ppe_to_spe_dma_slots))
        << p.pe_name(pe) << " proxy queue";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimProperties,
    ::testing::Values(Scenario{1, 0.775, "greedy-cpu"},
                      Scenario{2, 0.775, "greedy-mem"},
                      Scenario{3, 1.5, "greedy-cpu"},
                      Scenario{4, 1.5, "round-robin"},
                      Scenario{5, 2.3, "greedy-mem"},
                      Scenario{6, 2.3, "ppe-only"},
                      Scenario{7, 3.4, "greedy-cpu"},
                      Scenario{8, 4.6, "greedy-period"}),
    [](const ::testing::TestParamInfo<Scenario>& scenario) {
      std::string name = std::string(scenario.param.strategy) + "_seed" +
                         std::to_string(scenario.param.seed);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cellstream::sim
