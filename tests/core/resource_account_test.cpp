// The numeric account (SteadyStateAnalysis::account / within_limits) and
// the reports built on it (usage, violations, feasible, period) against
// the one-pass implementation they replaced (reference_usage.hpp): every
// field bitwise equal, including the period's bits, the bottleneck label
// and the violation messages, on fuzzed graphs, platforms, buffer
// policies and mappings — greedy, random, and built to break limits.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "reference_usage.hpp"
#include "support/rng.hpp"

namespace cellstream {
namespace {

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Every numeric field of `account` equals the reference's, bit for bit.
void expect_same_account(const ResourceUsage& account,
                         const reference::Usage& ref,
                         const std::string& where) {
  EXPECT_EQ(bits(account.compute_seconds), bits(ref.compute_seconds)) << where;
  EXPECT_EQ(bits(account.incoming_bytes), bits(ref.incoming_bytes)) << where;
  EXPECT_EQ(bits(account.outgoing_bytes), bits(ref.outgoing_bytes)) << where;
  EXPECT_EQ(bits(account.buffer_bytes), bits(ref.buffer_bytes)) << where;
  EXPECT_EQ(account.incoming_transfers, ref.incoming_transfers) << where;
  EXPECT_EQ(account.to_ppe_transfers, ref.to_ppe_transfers) << where;
  EXPECT_EQ(bits(account.cross_chip_out_bytes), bits(ref.cross_chip_out_bytes))
      << where;
  EXPECT_EQ(bits(account.cross_chip_in_bytes), bits(ref.cross_chip_in_bytes))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(account.period),
            std::bit_cast<std::uint64_t>(ref.period))
      << where;
}

/// Platform `index` of the fuzz: qs22_with_spes(1..8), then the dual Cell.
CellPlatform fuzz_platform(std::size_t index) {
  return index < 8 ? platforms::qs22_with_spes(index + 1)
                   : platforms::qs22_dual_cell();
}

/// Mappings of one case: greedy-cpu, greedy-mem, uniformly random, task
/// t on PE t mod n (on the dual Cell, half the edges cross the link
/// while each PE carries 1/n of the traffic), every task on the last SPE
/// (overflows its local store and DMA slots), and every task with
/// successors on the first SPE with the rest on PPE0 (SPE->PPE transfers
/// beyond the proxy slots).
std::vector<Mapping> fuzz_mappings(const SteadyStateAnalysis& analysis,
                                   Rng& rng) {
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  const std::size_t k = graph.task_count();
  std::vector<Mapping> out;
  out.push_back(mapping::greedy_cpu(analysis));
  out.push_back(mapping::greedy_mem(analysis));
  Mapping random(k, 0);
  for (TaskId t = 0; t < k; ++t) {
    random.assign(t, static_cast<PeId>(rng.uniform_int(
                         0, static_cast<std::int64_t>(platform.pe_count()) - 1)));
  }
  out.push_back(random);
  Mapping spread(k, 0);
  for (TaskId t = 0; t < k; ++t) spread.assign(t, t % platform.pe_count());
  out.push_back(spread);
  out.emplace_back(k, platform.pe_count() - 1);
  Mapping fan_out(k, 0);
  for (TaskId t = 0; t < k; ++t) {
    if (!graph.out_edges(t).empty()) fan_out.assign(t, platform.ppe_count);
  }
  out.push_back(fan_out);
  return out;
}

TEST(ResourceAccount, MatchesTheReferenceOnFuzzedCases) {
  Rng rng(20100419);
  ResourceUsage scratch;  // one account reused across every size
  std::size_t cases = 0;
  std::size_t infeasible = 0;
  std::size_t buffer_breaks = 0, dma_breaks = 0, proxy_breaks = 0;
  std::set<ResourceUsage::Resource> bottlenecks;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    gen::DagGenParams params;
    params.task_count = static_cast<std::size_t>(rng.uniform_int(2, 40));
    params.fat = rng.uniform(0.1, 0.9);
    params.density = rng.uniform(0.1, 0.9);
    params.seed = seed;
    TaskGraph graph = gen::daggen_random(params);
    // Log-uniform CCR from compute-bound to link-bound: at the paper's
    // CCRs (~1) the inter-chip link is never the bottleneck.
    gen::set_ccr(graph, std::exp(rng.uniform(std::log(0.3), std::log(3e4))));
    const CellPlatform platform = fuzz_platform(seed % 9);
    const BufferPolicy policy = seed % 2 == 0 ? BufferPolicy::kDuplicated
                                              : BufferPolicy::kSharedColocated;
    const SteadyStateAnalysis analysis(std::move(graph), platform, policy);

    for (const Mapping& mapping : fuzz_mappings(analysis, rng)) {
      const std::string where = "seed " + std::to_string(seed) + ", " +
                                mapping.to_string(analysis.platform());
      ++cases;
      const reference::Usage ref = reference::usage(analysis, mapping);
      const std::vector<std::string> ref_violations =
          reference::violations(analysis, mapping);

      analysis.account(mapping, scratch);
      expect_same_account(scratch, ref, where);
      EXPECT_TRUE(scratch.bottleneck.empty()) << where;
      EXPECT_EQ(analysis.within_limits(scratch), ref_violations.empty())
          << where;

      const ResourceUsage report = analysis.usage(mapping);
      expect_same_account(report, ref, where);
      EXPECT_EQ(report.bottleneck, ref.bottleneck) << where;
      EXPECT_EQ(analysis.violations(mapping), ref_violations) << where;
      EXPECT_EQ(analysis.feasible(mapping), ref_violations.empty()) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(analysis.period(mapping)),
                std::bit_cast<std::uint64_t>(ref.period))
          << where;

      infeasible += ref_violations.empty() ? 0 : 1;
      for (PeId pe = platform.ppe_count; pe < platform.pe_count(); ++pe) {
        const LimitBreaks broken = analysis.broken_limits(scratch, pe);
        buffer_breaks += broken.buffers ? 1 : 0;
        dma_breaks += broken.dma_slots ? 1 : 0;
        proxy_breaks += broken.proxy_slots ? 1 : 0;
      }
      bottlenecks.insert(scratch.bottleneck_resource);
    }
  }
  // The fuzz reaches every limit and every kind of bottleneck resource.
  EXPECT_GE(cases, 200u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(buffer_breaks, 0u);
  EXPECT_GT(dma_breaks, 0u);
  EXPECT_GT(proxy_breaks, 0u);
  EXPECT_EQ(bottlenecks.size(), 5u);  // all but kNone
}

// Once sized for the largest platform, the scratch account keeps its
// storage: accounting smaller and equal platforms again allocates nothing.
TEST(ResourceAccount, ScratchKeepsItsStorageAcrossSizes) {
  gen::DagGenParams params;
  params.task_count = 30;
  const TaskGraph big = gen::daggen_random(params);
  params.task_count = 5;
  const TaskGraph small = gen::daggen_random(params);
  const SteadyStateAnalysis dual(big, platforms::qs22_dual_cell());
  const SteadyStateAnalysis one_spe(small, platforms::qs22_with_spes(1));

  ResourceUsage scratch;
  dual.account(mapping::greedy_cpu(dual), scratch);
  const double* compute = scratch.compute_seconds.data();
  const std::size_t* transfers = scratch.incoming_transfers.data();
  const double* link_out = scratch.cross_chip_out_bytes.data();
  for (int round = 0; round < 3; ++round) {
    one_spe.account(mapping::greedy_cpu(one_spe), scratch);
    EXPECT_EQ(scratch.compute_seconds.size(), 2u);
    dual.account(mapping::ppe_only(dual), scratch);
    EXPECT_EQ(scratch.compute_seconds.size(), 18u);
  }
  EXPECT_EQ(scratch.compute_seconds.data(), compute);
  EXPECT_EQ(scratch.incoming_transfers.data(), transfers);
  EXPECT_EQ(scratch.cross_chip_out_bytes.data(), link_out);
}

// A report reused as scratch: account() clears its stale label.
TEST(ResourceAccount, AccountClearsAStaleBottleneckLabel) {
  gen::DagGenParams params;
  params.task_count = 12;
  const SteadyStateAnalysis analysis(gen::daggen_random(params),
                                     platforms::qs22_single_cell());
  ResourceUsage u = analysis.usage(mapping::greedy_cpu(analysis));
  ASSERT_FALSE(u.bottleneck.empty());
  analysis.account(mapping::ppe_only(analysis), u);
  EXPECT_TRUE(u.bottleneck.empty());
  EXPECT_EQ(u.bottleneck_resource, ResourceUsage::Resource::kCompute);
  EXPECT_EQ(u.bottleneck_index, 0u);
}

TEST(ResourceAccount, RejectsMismatchedMappings) {
  gen::DagGenParams params;
  params.task_count = 6;
  const SteadyStateAnalysis analysis(gen::daggen_random(params),
                                     platforms::qs22_with_spes(2));
  ResourceUsage scratch;
  EXPECT_THROW(analysis.account(Mapping(5, 0), scratch), Error);
  EXPECT_THROW(analysis.account(Mapping(6, 3), scratch), Error);
  EXPECT_THROW(analysis.broken_limits(scratch, 0), Error);
}

}  // namespace
}  // namespace cellstream
