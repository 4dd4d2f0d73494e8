// The simulator's per-channel readiness flags against the full scan they
// replaced: at every communication phase the channel picked from the
// flags must be the first issuable one at or after the PE's cursor, as
// probing each channel finds it, and every issue re-validation must agree
// with the probe (sim::detail::simulate_checking_picks throws on the
// first difference).  Covered: the paper graphs on a QS22 under both
// greedy heuristics, untraced with fast-forward, traced with every event
// simulated (a traced run fast-forwards too, and its jump would skip the
// picks this pass re-derives), and with transient fault plans (DMA
// retries, slowdowns, hangs); dual-Cell DagGen mappings whose PPE fetches
// go through a SPE's proxy queue; two PPEs racing for one proxy queue;
// and a SPE filling its MFC queue.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/fault_plan.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace cellstream::sim {
namespace {

/// What the checked runs reached: full MFC and proxy queues (where
/// readiness flips on an occupancy), a fast-forward jump, DMA retries.
struct Coverage {
  bool mfc_full = false;
  bool proxy_full = false;
  bool fast_forward = false;
  bool dma_retries = false;
};

/// Run `mapping` checked and plain; the results must agree.
void expect_same_picks(const SteadyStateAnalysis& analysis,
                       const Mapping& mapping, const SimOptions& options,
                       Coverage& coverage) {
  std::uint64_t picks = 0;
  const SimResult checked =
      detail::simulate_checking_picks(analysis, mapping, options, picks);
  const SimResult plain = simulate(analysis, mapping, options);
  EXPECT_GT(picks, 0u);
  EXPECT_EQ(checked.completion_times, plain.completion_times);
  EXPECT_EQ(checked.dma_transfers, plain.dma_transfers);
  EXPECT_EQ(checked.faults.dma_retries, plain.faults.dma_retries);
  const CellPlatform& platform = analysis.platform();
  for (PeId pe = platform.ppe_count; pe < platform.pe_count(); ++pe) {
    const obs::PeCounters& c = checked.counters.pe[pe];
    coverage.mfc_full |= c.mfc_queue_peak == platform.spe_dma_slots;
    coverage.proxy_full |= c.proxy_queue_peak == platform.ppe_to_spe_dma_slots;
  }
  coverage.fast_forward |= checked.fast_forward.engaged;
  coverage.dma_retries |= checked.faults.dma_retries > 0;
}

/// A transient plan: FaultPlan::random without its fail-stop, which the
/// raw simulator refuses.
fault::FaultPlan transient_plan(std::uint64_t seed,
                                const CellPlatform& platform,
                                std::size_t instances) {
  fault::FaultPlan plan = fault::FaultPlan::random(
      seed, platform, static_cast<std::int64_t>(instances));
  plan.pe_failure.reset();
  return plan;
}

TEST(ChannelReadiness, PaperGraphsPickAsTheFullScanDoes) {
  Coverage coverage;
  for (int g = 0; g < 3; ++g) {
    TaskGraph graph = gen::paper_graph(g);
    gen::set_ccr(graph, 0.775);
    const SteadyStateAnalysis analysis(graph, platforms::qs22_single_cell());
    for (const Mapping& m :
         {mapping::greedy_cpu(analysis), mapping::greedy_mem(analysis)}) {
      SCOPED_TRACE("graph " + std::to_string(g));
      SimOptions options;
      options.instances = 600;
      expect_same_picks(analysis, m, options, coverage);
      options.record_trace = true;
      options.fast_forward = false;  // check every pick, not one cycle's
      expect_same_picks(analysis, m, options, coverage);
      options.record_trace = false;
      options.fast_forward = true;
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const fault::FaultPlan plan =
            transient_plan(seed * 7 + static_cast<std::uint64_t>(g),
                           analysis.platform(), options.instances);
        options.fault_plan = &plan;
        expect_same_picks(analysis, m, options, coverage);
        options.fault_plan = nullptr;
      }
    }
  }
  EXPECT_TRUE(coverage.fast_forward);
  EXPECT_TRUE(coverage.dma_retries);
}

/// Most tasks on the two PPEs (one per chip), the rest on chip 0's first
/// SPE, so the PPEs' fetches from its local store share its proxy queue
/// and PPE 1's cross the chip link.
Mapping proxy_heavy_mapping(const TaskGraph& graph,
                            const CellPlatform& platform, Rng& rng) {
  Mapping m(graph.task_count(), platform.ppe_count);
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    if (rng.bernoulli(0.7)) {
      m.assign(t, static_cast<PeId>(rng.uniform_int(0, 1)));
    }
  }
  return m;
}

TEST(ChannelReadiness, DualCellProxyQueuesPickAsTheFullScanDoes) {
  const CellPlatform platform = platforms::qs22_dual_cell();
  ASSERT_EQ(platform.ppe_count, 2u);
  Coverage coverage;
  std::size_t runs = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gen::DagGenParams params;
    params.task_count = 24;
    params.seed = seed;
    params.density = 0.6;
    params.data_min = 512.0;  // small buffers: the mapping fits the SPE
    params.data_max = 2048.0;
    const SteadyStateAnalysis analysis(gen::daggen_random(params), platform);
    Rng rng(seed);
    const Mapping m = proxy_heavy_mapping(analysis.graph(), platform, rng);
    ResourceUsage u;
    analysis.account(m, u);
    bool loads = true;
    for (PeId pe = platform.ppe_count; pe < platform.pe_count(); ++pe) {
      loads &= !analysis.broken_limits(u, pe).buffers;
    }
    if (!loads) continue;  // the simulator refuses local-store overflow
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimOptions options;
    options.instances = 300;
    options.dma_issue_overhead = 1e-9;  // PPEs issue faster than DMAs land
    expect_same_picks(analysis, m, options, coverage);
    const fault::FaultPlan plan =
        transient_plan(seed, platform, options.instances);
    options.fault_plan = &plan;
    expect_same_picks(analysis, m, options, coverage);
    ++runs;
  }
  EXPECT_GE(runs, 10u);
  EXPECT_TRUE(coverage.mfc_full);
  EXPECT_TRUE(coverage.dma_retries);
}

/// One SPE task feeding `fan` sinks split over the two PPEs of a dual
/// Cell: both PPEs race for the SPE's 8-deep proxy queue.
TEST(ChannelReadiness, TwoPpesRacingForOneProxyQueuePickAsTheFullScanDoes) {
  const CellPlatform platform = platforms::qs22_dual_cell();
  constexpr std::size_t kFan = 12;
  TaskGraph graph("proxy-fan-out");
  graph.add_task({"source", 1.0e-5, 1.0e-6, 0, 0.0, 0.0, false});
  Mapping m(kFan + 1, platform.ppe_count);  // the source on chip 0's SPE
  for (std::size_t k = 0; k < kFan; ++k) {
    const TaskId sink = graph.add_task(
        {"sink" + std::to_string(k), 2.0e-6, 2.0e-6, 0, 0.0, 0.0, false});
    graph.add_edge(0, sink, 4096.0);
    m.assign(sink, k % 2);
  }
  const SteadyStateAnalysis analysis(graph, platform);
  Coverage coverage;
  SimOptions options;
  options.instances = 400;
  expect_same_picks(analysis, m, options, coverage);
  options.dma_issue_overhead = 1e-9;
  expect_same_picks(analysis, m, options, coverage);
  const fault::FaultPlan plan = transient_plan(5, platform, options.instances);
  options.fault_plan = &plan;
  expect_same_picks(analysis, m, options, coverage);
  EXPECT_TRUE(coverage.proxy_full);
  EXPECT_TRUE(coverage.dma_retries);
}

/// `fan` sources on the PPE feeding one slow sink on a SPE: each sink
/// instance frees a slot on every channel at once, and the SPE's fetches
/// fill its 16-deep MFC queue while more channels have data.
TEST(ChannelReadiness, OneSpeFillingItsMfcQueuePicksAsTheFullScanDoes) {
  const CellPlatform platform = platforms::qs22_single_cell();
  constexpr std::size_t kFan = 20;
  TaskGraph graph("mfc-fan-in");
  Mapping m(kFan + 1, 0);  // the sources on the PPE
  const TaskId sink =
      graph.add_task({"sink", 1.0e-4, 1.0e-4, 0, 0.0, 0.0, false});
  m.assign(sink, platform.ppe_count);
  for (std::size_t k = 0; k < kFan; ++k) {
    const TaskId source = graph.add_task(
        {"source" + std::to_string(k), 1.0e-7, 1.0e-7, 0, 0.0, 0.0, false});
    graph.add_edge(source, sink, 4096.0);
  }
  const SteadyStateAnalysis analysis(graph, platform);
  Coverage coverage;
  SimOptions options;
  options.instances = 400;
  options.dispatch_overhead = 1e-9;
  options.dma_issue_overhead = 1e-9;
  expect_same_picks(analysis, m, options, coverage);
  options.record_trace = true;
  expect_same_picks(analysis, m, options, coverage);
  EXPECT_TRUE(coverage.mfc_full);
}

}  // namespace
}  // namespace cellstream::sim
