// Rule D9: the screened local search (improve_mapping) against the
// unscreened one it replaced (reference_local_search.hpp).  The screen may
// only drop candidates the full account would reject, so the final
// mapping and the bits of its period must be the reference's, the search
// must consider exactly the candidates the reference accounted, and it
// may account no more of them.  Fuzzed cases cover four platforms, both
// buffer policies, four starts and both option sets; the boundary cases
// put a total exactly on its limit, an estimate an ulp away from its
// account, a candidate that breaks a slot count only through a
// neighbour or through the edge a swap reverses, ties between symmetric
// SPEs and a link-bound dual Cell.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/local_search.hpp"
#include "reference_local_search.hpp"
#include "support/rng.hpp"

namespace cellstream::mapping {
namespace {

struct Outcome {
  Mapping mapping;
  double period = 0.0;
  LocalSearchWork work;
};

/// Run both searches from `start`; check they agree and return the
/// screened one's outcome.
Outcome expect_equivalent(const SteadyStateAnalysis& analysis,
                          const Mapping& start,
                          const LocalSearchOptions& options,
                          const std::string& where) {
  Mapping expected = start;
  std::size_t reference_evaluations = 0;
  const double expected_period = reference::improve_mapping(
      analysis, expected, options, &reference_evaluations);
  Outcome out{start, 0.0, {}};
  out.period = improve_mapping(analysis, out.mapping, options, &out.work);
  EXPECT_EQ(out.mapping.raw(), expected.raw()) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.period),
            std::bit_cast<std::uint64_t>(expected_period))
      << where << ": period " << out.period << " vs " << expected_period;
  EXPECT_EQ(out.work.candidates, reference_evaluations) << where;
  EXPECT_LE(out.work.evaluations, reference_evaluations) << where;
  return out;
}

LocalSearchOptions rounding_polish() {
  LocalSearchOptions options;
  options.max_passes = 2;
  options.use_swaps = false;
  return options;
}

/// `graphs` DagGen graphs (K 8-40, CCR log-uniform in [0.1, 10]) on
/// `platform`, each under both buffer policies, from greedy-cpu,
/// greedy-mem, ppe-only and round-robin starts, with the default options
/// and the rounding polish's.
void fuzz(const CellPlatform& platform, std::uint64_t seed,
          std::size_t graphs) {
  Rng rng(seed);
  std::size_t cases = 0, moved = 0;
  std::size_t candidates = 0, evaluations = 0;
  for (std::size_t g = 0; g < graphs; ++g) {
    gen::DagGenParams params;
    params.task_count = static_cast<std::size_t>(rng.uniform_int(8, 40));
    params.fat = rng.uniform(0.1, 0.9);
    params.density = rng.uniform(0.1, 0.9);
    params.seed = rng();
    TaskGraph graph = gen::daggen_random(params);
    gen::set_ccr(graph, std::exp(rng.uniform(std::log(0.1), std::log(10.0))));
    for (BufferPolicy policy :
         {BufferPolicy::kDuplicated, BufferPolicy::kSharedColocated}) {
      const SteadyStateAnalysis analysis(graph, platform, policy);
      for (const char* start_name :
           {"greedy-cpu", "greedy-mem", "ppe-only", "round-robin"}) {
        const Mapping start = run_heuristic(start_name, analysis);
        if (!analysis.feasible(start)) {
          Mapping copy = start;
          EXPECT_THROW(improve_mapping(analysis, copy), Error);
          continue;
        }
        for (const LocalSearchOptions& options :
             {LocalSearchOptions{}, rounding_polish()}) {
          const std::string where =
              "graph " + std::to_string(g) + " (K=" +
              std::to_string(params.task_count) + "), " +
              (policy == BufferPolicy::kDuplicated ? "duplicated" : "shared") +
              ", " + start_name + (options.use_swaps ? ", default" : ", polish");
          const Outcome out = expect_equivalent(analysis, start, options, where);
          ++cases;
          moved += out.mapping.raw() != start.raw() ? 1 : 0;
          candidates += out.work.candidates;
          evaluations += out.work.evaluations;
        }
      }
    }
  }
  EXPECT_GE(cases, graphs * 12);  // most starts are feasible
  EXPECT_GT(moved, cases / 2);
  // The screen rejects most candidates without a full account.
  EXPECT_LT(evaluations * 4, candidates);
}

TEST(LocalSearchEquivalence, FuzzOneSpe) {
  fuzz(platforms::qs22_with_spes(1), 17, 192);
}

TEST(LocalSearchEquivalence, FuzzFourSpes) {
  fuzz(platforms::qs22_with_spes(4), 18, 128);
}

TEST(LocalSearchEquivalence, FuzzSingleCell) {
  fuzz(platforms::qs22_single_cell(), 19, 96);
}

TEST(LocalSearchEquivalence, FuzzDualCell) {
  fuzz(platforms::qs22_dual_cell(), 20, 64);
}

Task task(double wppe, double wspe) {
  Task t;
  t.wppe = wppe;
  t.wspe = wspe;
  return t;
}

// SPE1 holds tasks 0 and 2; moving the heavy task 1 onto it fills its
// local store exactly: the account sums ((b0 + b1) + b2) = 196608 bytes,
// the budget, while the current total plus the move, ((b0 + b2) + b1),
// rounds 2^-35 above it.  Only the rounding slack keeps the move.
TEST(LocalSearchEquivalence, LocalStoreExactlyOnBudget) {
  const double b[3] = {25655.136772680868, 28487.199515892164,
                       142465.66371142698};
  TaskGraph graph;
  graph.add_task(task(1e-2, 1e-4));
  graph.add_task(task(1e-2, 1e-3));
  graph.add_task(task(1e-2, 1e-4));
  for (int i = 0; i < 3; ++i) graph.add_task(task(1e-5, 1.0));
  for (TaskId t = 0; t < 3; ++t) graph.add_edge(3 + t, t, b[t] / 2);  // depth 2
  const SteadyStateAnalysis analysis(graph, platforms::qs22_with_spes(1));
  ASSERT_EQ(analysis.buffer_budget(), 196608.0);
  ASSERT_GT((b[0] + b[2]) + b[1], analysis.buffer_budget());
  const Mapping start(std::vector<PeId>{1, 0, 1, 0, 0, 0});
  const Outcome out =
      expect_equivalent(analysis, start, {}, "exactly on the budget");
  EXPECT_EQ(out.mapping.pe_of(1), 1u);
  EXPECT_EQ(analysis.usage(out.mapping).buffer_bytes[1],
            analysis.buffer_budget());
}

// The same for the period: moving task 1 off PPE0 onto SPE1 gives SPE1
// ((w0 + w1) + w2) seconds, one ulp below the threshold (PPE0's period
// V less 1e-15), while ((w0 + w2) + w1) lands on the threshold itself.
TEST(LocalSearchEquivalence, PeriodEstimateAnUlpAboveItsAccount) {
  const double w0 = 0.002721823563784302, w1 = 0.0010393425687667066,
               w2 = 0.0016501894013915444, v = 0.005411355533943554;
  ASSERT_LT((w0 + w1) + w2, v - 1e-15);
  ASSERT_EQ((w0 + w2) + w1, v - 1e-15);
  TaskGraph graph;
  graph.add_task(task(1.0, w0));
  graph.add_task(task(v, w1));
  graph.add_task(task(1.0, w2));
  const SteadyStateAnalysis analysis(graph, platforms::qs22_with_spes(1));
  const Mapping start(std::vector<PeId>{1, 0, 1});
  const Outcome out = expect_equivalent(analysis, start, {}, "period ulp");
  EXPECT_EQ(out.mapping.raw(), (std::vector<PeId>{1, 1, 1}));
  EXPECT_EQ(out.period, (w0 + w1) + w2);
}

// Under the shared policy a move next to a neighbour fits only because the
// two share the edge's buffer: 2 x 128 kB duplicated, 128 kB shared.
TEST(LocalSearchEquivalence, SharedBufferReliefMakesRoom) {
  TaskGraph graph;
  graph.add_task(task(1e-2, 1e-4));
  graph.add_task(task(1e-2, 1e-3));
  graph.add_edge(0, 1, 64.0 * 1024);
  const SteadyStateAnalysis analysis(graph, platforms::qs22_with_spes(1),
                                     BufferPolicy::kSharedColocated);
  const Mapping start(std::vector<PeId>{1, 0});
  const Outcome out = expect_equivalent(analysis, start, {}, "shared relief");
  EXPECT_EQ(out.mapping.raw(), (std::vector<PeId>{1, 1}));
}

/// A heavy PPE task `hub` (light on a SPE) with `degree` edges to
/// (`inward`: from) tasks that are light on the PPE and far too slow on a
/// SPE, all on PPE0 of a one-SPE QS22.
SteadyStateAnalysis hub(std::size_t degree, bool inward) {
  TaskGraph graph;
  graph.add_task(task(1e-2, 1e-4));
  for (std::size_t i = 0; i < degree; ++i) {
    const TaskId leaf = graph.add_task(task(1e-5, 1.0));
    if (inward) {
      graph.add_edge(leaf, 0, 1024);
    } else {
      graph.add_edge(0, leaf, 1024);
    }
  }
  return SteadyStateAnalysis(graph, platforms::qs22_with_spes(1));
}

/// SPE1 hosts a source with `to_ppe` sinks on PPE0 and one more, heavy on
/// a SPE and light on a PPE, alone on SPE2: moving it to PPE0 is the one
/// improving candidate, and it adds a transfer to SPE1's proxy slots.
SteadyStateAnalysis proxy_neighbour(std::size_t to_ppe, Mapping& start) {
  TaskGraph graph;
  graph.add_task(task(1.0, 1e-4));
  graph.add_task(task(1e-4, 1e-2));
  graph.add_edge(0, 1, 1024);
  std::vector<PeId> pes = {1, 2};
  for (std::size_t i = 0; i < to_ppe; ++i) {
    graph.add_edge(0, graph.add_task(task(1e-5, 1.0)), 1024);
    pes.push_back(0);
  }
  start = Mapping(pes);
  return SteadyStateAnalysis(graph, platforms::qs22_with_spes(2));
}

// A move that brings a (1j) or (1k) count exactly to its limit is kept.
TEST(LocalSearchEquivalence, SlotCountsExactlyAtTheirLimits) {
  const SteadyStateAnalysis incoming = hub(16, true);   // 16 DMA slots
  const SteadyStateAnalysis outgoing = hub(8, false);   // 8 proxy slots
  for (const SteadyStateAnalysis* analysis : {&incoming, &outgoing}) {
    const Mapping start(analysis->graph().task_count(), 0);
    const Outcome out = expect_equivalent(*analysis, start, {}, "at limit");
    EXPECT_EQ(out.mapping.pe_of(0), 1u);
  }
  Mapping start;
  const SteadyStateAnalysis neighbour = proxy_neighbour(7, start);
  const Outcome out = expect_equivalent(neighbour, start, {}, "neighbour");
  EXPECT_EQ(out.mapping.pe_of(1), 0u);
  EXPECT_EQ(neighbour.usage(out.mapping).to_ppe_transfers[1], 8u);
}

/// Task 0 on PPE0, heavy there, with edges to eight sinks on PPE0 and to
/// task 1 alone on SPE1, heavy there: swapping tasks 0 and 1 is the one
/// improving candidate, and it reverses the 0 -> 1 edge into a ninth
/// SPE->PPE transfer of SPE1.
SteadyStateAnalysis reversed_swap(Mapping& start) {
  TaskGraph graph;
  graph.add_task(task(1e-2, 1e-4));
  graph.add_task(task(1e-4, 1e-2));
  graph.add_edge(0, 1, 1024);
  std::vector<PeId> pes = {0, 1};
  for (int i = 0; i < 8; ++i) {
    graph.add_edge(0, graph.add_task(task(1e-5, 1.0)), 1024);
    pes.push_back(0);
  }
  start = Mapping(pes);
  return SteadyStateAnalysis(graph, platforms::qs22_with_spes(1));
}

// One slot more, and the only improving candidate breaks the limit: the
// exact slot counts reject it, so the search accounts nothing but its
// start.  In the swap case the second half of the swap must see the
// first one applied, or the reversed edge goes uncounted.  (The
// neighbour case runs moves only: its one swap ties the period, and a
// tie within the rounding slack is accounted.)
TEST(LocalSearchEquivalence, SlotBreakingCandidatesAreNeverAccounted) {
  const SteadyStateAnalysis incoming = hub(17, true);
  const SteadyStateAnalysis outgoing = hub(9, false);
  for (const SteadyStateAnalysis* analysis : {&incoming, &outgoing}) {
    const Mapping start(analysis->graph().task_count(), 0);
    const Outcome out = expect_equivalent(*analysis, start, {}, "over limit");
    EXPECT_EQ(out.mapping.raw(), start.raw());
    EXPECT_EQ(out.work.candidates, 1 + analysis->graph().task_count());
    EXPECT_EQ(out.work.evaluations, 1u);
  }
  Mapping start;
  const SteadyStateAnalysis neighbour = proxy_neighbour(8, start);
  const Outcome out =
      expect_equivalent(neighbour, start, rounding_polish(), "neighbour");
  EXPECT_EQ(out.mapping.raw(), start.raw());
  EXPECT_GT(out.work.candidates, 1u);
  EXPECT_EQ(out.work.evaluations, 1u);

  const SteadyStateAnalysis swapped = reversed_swap(start);
  const Outcome swap = expect_equivalent(swapped, start, {}, "swap");
  EXPECT_EQ(swap.mapping.raw(), start.raw());
  EXPECT_EQ(swap.work.evaluations, 1u);
}

// Identical tasks on identical SPEs: many candidates tie with each other
// and with the running best exactly; ties never count as improvements.
TEST(LocalSearchEquivalence, TiedPeriodsAcrossSymmetricSpes) {
  for (BufferPolicy policy :
       {BufferPolicy::kDuplicated, BufferPolicy::kSharedColocated}) {
    TaskGraph graph;
    for (int i = 0; i < 12; ++i) graph.add_task(task(4e-3, 1e-3));
    for (TaskId t = 0; t + 1 < 12; t += 2) graph.add_edge(t, t + 1, 4096);
    const SteadyStateAnalysis analysis(graph, platforms::qs22_with_spes(4),
                                       policy);
    for (const Mapping& start :
         {ppe_only(analysis), round_robin(analysis), greedy_cpu(analysis)}) {
      for (const LocalSearchOptions& options :
           {LocalSearchOptions{}, rounding_polish()}) {
        expect_equivalent(analysis, start, options, "symmetric SPEs");
      }
    }
  }
}

// An infinite weight makes its resource's slack infinite: the screen must
// then leave every decision on it to the full account.
TEST(LocalSearchEquivalence, InfiniteLoadIsLeftToTheAccount) {
  TaskGraph graph;
  graph.add_task(task(std::numeric_limits<double>::infinity(), 1e-3));
  graph.add_task(task(1e-3, 2e-3));
  graph.add_edge(0, 1, 4096);
  const SteadyStateAnalysis analysis(graph, platforms::qs22_with_spes(2));
  const Outcome out =
      expect_equivalent(analysis, Mapping(2, 0), {}, "infinite weight");
  EXPECT_TRUE(analysis.platform().is_spe(out.mapping.pe_of(0)));
  EXPECT_TRUE(std::isfinite(out.period));
}

// Large edges between the two chips of a dual Cell: the link is the
// bottleneck, and moves across chips change it.
TEST(LocalSearchEquivalence, LinkBoundDualCell) {
  const CellPlatform platform = platforms::qs22_dual_cell();
  std::size_t link_bound = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gen::DagGenParams params;
    params.task_count = 10 + seed;
    params.seed = seed;
    TaskGraph graph = gen::daggen_random(params);
    gen::set_ccr(graph, 3e3);
    const SteadyStateAnalysis analysis(graph, platform);
    Mapping start(graph.task_count(), 0);  // alternate PPE0 (chip 0), PPE1
    for (TaskId t = 0; t < graph.task_count(); ++t) start.assign(t, t % 2);
    const ResourceUsage before = analysis.usage(start);
    link_bound += before.bottleneck_resource ==
                              ResourceUsage::Resource::kLinkOut ||
                          before.bottleneck_resource ==
                              ResourceUsage::Resource::kLinkIn
                      ? 1
                      : 0;
    for (const LocalSearchOptions& options :
         {LocalSearchOptions{}, rounding_polish()}) {
      expect_equivalent(analysis, start, options,
                        "link-bound seed " + std::to_string(seed));
    }
  }
  EXPECT_GE(link_bound, 6u);
}

}  // namespace
}  // namespace cellstream::mapping
