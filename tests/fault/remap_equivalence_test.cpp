// Rule D11: the failover remap (mapping::remap_after_failure, the paper's
// GREEDYMEM and GREEDYCPU over the surviving PEs) against the remap it
// replaced (reference_remap.hpp).  Both keep every surviving task in place
// and place the orphans in topological order on the survivors' loads, so
// the remapped assignment must be the reference's — except where an orphan
// reaches the GREEDYMEM fallback with two PPEs left: the reference took
// the less loaded one, the heuristics take the lowest-index one (PPE0
// unless it failed).  Fuzzed DagGen graphs on four platforms lose every
// PE in turn, under both strategies, from the start each heuristic gives.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "gen/daggen.hpp"
#include "mapping/heuristics.hpp"
#include "reference_remap.hpp"
#include "support/rng.hpp"

namespace cellstream::mapping {
namespace {

/// The lowest-index PPE other than `failed`.
PeId lowest_usable_ppe(PeId failed) { return failed == 0 ? 1 : 0; }

void fuzz(const std::string& name, const CellPlatform& platform,
          std::uint64_t seed, std::size_t graphs) {
  Rng rng(seed);
  std::size_t cases = 0, remapped = 0, throws = 0, multi_ppe_cases = 0;
  reference::RemapProbe probe;
  for (std::size_t g = 0; g < graphs; ++g) {
    gen::DagGenParams params;
    params.task_count = static_cast<std::size_t>(rng.uniform_int(5, 40));
    params.fat = rng.uniform(0.1, 0.9);
    params.density = rng.uniform(0.1, 0.9);
    params.seed = rng();
    TaskGraph graph = gen::daggen_random(params);
    gen::set_ccr(graph, std::exp(rng.uniform(std::log(0.1), std::log(10.0))));
    const SteadyStateAnalysis analysis(graph, platform);
    for (const char* start_name : {"greedy-mem", "greedy-cpu", "greedy-period",
                                   "round-robin", "ppe-only"}) {
      const Mapping start = run_heuristic(start_name, analysis);
      for (PeId failed = 0; failed < platform.pe_count(); ++failed) {
        for (const char* strategy : {"greedy-mem", "greedy-cpu"}) {
          const std::string where = name + " graph " + std::to_string(g) +
                                    ", " + start_name + " start, " +
                                    platform.pe_name(failed) + " lost, " +
                                    strategy;
          if (platform.is_ppe(failed) && platform.ppe_count == 1) {
            EXPECT_THROW(remap_after_failure(analysis, start, failed,
                                             parse_remap_strategy(strategy)),
                         Error)
                << where;
            EXPECT_THROW(reference::remap_after_failure(analysis, start,
                                                        {failed}, strategy),
                         Error)
                << where;
            ++throws;
            continue;
          }
          reference::RemapProbe case_probe;
          const Mapping expected = reference::remap_after_failure(
              analysis, start, {failed}, strategy, &case_probe);
          const Mapping got = remap_after_failure(
              analysis, start, failed, parse_remap_strategy(strategy));
          ++cases;
          probe.fallbacks += case_probe.fallbacks;
          if (case_probe.multi_ppe_fallbacks == 0) {
            EXPECT_EQ(got.raw(), expected.raw()) << where;
          } else {
            // The one allowed difference: the orphans GREEDYMEM cannot put
            // on a SPE go to the lowest-index surviving PPE.
            ++multi_ppe_cases;
            for (TaskId t = 0; t < graph.task_count(); ++t) {
              if (start.pe_of(t) != failed) {
                EXPECT_EQ(got.pe_of(t), start.pe_of(t)) << where;
              } else if (platform.is_ppe(got.pe_of(t))) {
                EXPECT_EQ(got.pe_of(t), lowest_usable_ppe(failed)) << where;
              }
            }
          }
          if (got.raw() != start.raw()) ++remapped;
        }
      }
    }
  }
  std::printf("D11 %s: %zu remaps compared (%zu moved a task), %zu "
              "only-PPE losses threw, %zu GREEDYMEM fallbacks, %zu cases "
              "with a fallback between two PPEs\n",
              name.c_str(), cases, remapped, throws, probe.fallbacks,
              multi_ppe_cases);
  EXPECT_GT(remapped, cases / 4) << name;
}

TEST(RemapEquivalence, FuzzSingleCell) {
  fuzz("qs22", platforms::qs22_single_cell(), 31, 128);
}

TEST(RemapEquivalence, FuzzPlayStation3) {
  fuzz("ps3", platforms::playstation3(), 32, 128);
}

TEST(RemapEquivalence, FuzzFourSpes) {
  fuzz("qs22-4spe", platforms::qs22_with_spes(4), 33, 128);
}

TEST(RemapEquivalence, FuzzDualCell) {
  fuzz("qs22-dual", platforms::qs22_dual_cell(), 34, 96);
}

// The rule the two remaps differ on: SPE3 fails, its task C fits on no
// surviving SPE, and PPE1 is idle while PPE0 carries both sources.  The
// reference moves C to the less loaded PPE1; GREEDYMEM falls back to PPE0,
// as it does when it maps from scratch.
TEST(RemapEquivalence, GreedyMemFallbackIsTheLowestUsablePpe) {
  TaskGraph graph("fallback");
  graph.add_task({"S1", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  graph.add_task({"S2", 1e-3, 1e-3, 0, 0.0, 0.0, false});
  graph.add_task({"B", 1e-3, 1e-4, 0, 0.0, 0.0, false});
  graph.add_task({"C", 1e-3, 1e-4, 0, 0.0, 0.0, false});
  graph.add_edge(0, 2, 60.0 * 1024);
  graph.add_edge(1, 3, 60.0 * 1024);
  CellPlatform platform = platforms::qs22_single_cell();
  platform.ppe_count = 2;
  platform.spe_count = 2;
  const SteadyStateAnalysis analysis(graph, platform);
  const double budget = static_cast<double>(platform.buffer_budget());
  ASSERT_LE(analysis.task_buffer_bytes(3), budget);
  ASSERT_GT(analysis.task_buffer_bytes(2) + analysis.task_buffer_bytes(3),
            budget);
  const Mapping start(std::vector<PeId>{0, 0, 2, 3});

  const Mapping reference_post =
      reference::remap_after_failure(analysis, start, {3}, "greedy-mem");
  EXPECT_EQ(reference_post.pe_of(3), 1u);
  const Mapping post =
      remap_after_failure(analysis, start, 3, RemapStrategy::kGreedyMem);
  EXPECT_EQ(post.raw(), (std::vector<PeId>{0, 0, 2, 0}));

  // With PPE0 lost, its sources fit on no SPE either, and PPE1 is the
  // lowest usable PPE.
  const Mapping ppe_lost =
      remap_after_failure(analysis, start, 0, RemapStrategy::kGreedyMem);
  EXPECT_EQ(ppe_lost.raw(), (std::vector<PeId>{1, 1, 2, 3}));
}

}  // namespace
}  // namespace cellstream::mapping
