// Bounded in-process run of the differential fuzzer (label: fuzz-smoke).
// The full CI sweep is the cellstream_fuzz --smoke executable registered
// in tests/CMakeLists.txt; this binary keeps a smaller deterministic slice
// under gtest so failures carry the usual test diagnostics.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "check/fuzz_driver.hpp"

namespace cellstream::check {
namespace {

TEST(FuzzSmoke, CaseDerivationIsDeterministic) {
  const FuzzOptions options;
  const FuzzCase a = make_case(123456789, options);
  const FuzzCase b = make_case(123456789, options);
  EXPECT_EQ(a.case_seed, b.case_seed);
  EXPECT_EQ(a.task_count, b.task_count);
  EXPECT_EQ(a.ccr, b.ccr);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.platform, b.platform);
  EXPECT_EQ(a.differential, b.differential);
}

TEST(FuzzSmoke, CaseDerivationIsPinned) {
  // The first eight cases of three seed streams.  A logged
  // `cellstream_fuzz --case <seed>` must keep reproducing its case, so any
  // change to the derivation fails here.
  const char* const expected[] = {
      "case 15178329099753204437 (12 tasks, ccr 1.5, ppe-only, qs22)",
      "case 12597054949672685757 (17 tasks, ccr 2.3, greedy-period, qs22)",
      "case 8843121786283792951 (3 tasks, ccr 4.6, greedy-cpu, qs22, differential)",
      "case 16573938923715051111 (11 tasks, ccr 1.5, round-robin, ps3)",
      "case 7843529304461815459 (10 tasks, ccr 0.775, greedy-cpu, qs22-dual)",
      "case 12719027907261412878 (10 tasks, ccr 1.5, greedy-mem, qs22-dual)",
      "case 122281542971599390 (5 tasks, ccr 1, ppe-only, qs22, differential)",
      "case 905451782731808215 (12 tasks, ccr 2.3, ppe-only, qs22)",
      "case 11590294086106071513 (6 tasks, ccr 1.5, ppe-only, qs22, differential)",
      "case 1175602505986319303 (10 tasks, ccr 1.5, greedy-mem, qs22)",
      "case 7068385817707635587 (5 tasks, ccr 4.6, ppe-only, qs22-dual)",
      "case 5259442281579701794 (22 tasks, ccr 1.5, greedy-mem, qs22)",
      "case 3925572022013135443 (4 tasks, ccr 3.4, greedy-cpu, ps3, differential)",
      "case 11532413222405214757 (8 tasks, ccr 1.5, greedy-cpu, qs22-dual)",
      "case 7000616111224034777 (10 tasks, ccr 3.4, ppe-only, ps3)",
      "case 3559760009314242082 (18 tasks, ccr 0.775, round-robin, qs22)",
      "case 2844831259165806821 (14 tasks, ccr 1, greedy-cpu, qs22-4spe)",
      "case 13141530676895200030 (5 tasks, ccr 3.4, ppe-only, ps3)",
      "case 11845183193435525690 (7 tasks, ccr 3.4, greedy-mem, qs22-dual)",
      "case 2001052815362096135 (15 tasks, ccr 0.775, round-robin, qs22)",
      "case 15604053454578936486 (13 tasks, ccr 1.5, greedy-mem, qs22)",
      "case 6951372732474835250 (20 tasks, ccr 1.5, round-robin, ps3)",
      "case 9777182521470698982 (7 tasks, ccr 3.4, round-robin, qs22-dual)",
      "case 12810325307082193608 (14 tasks, ccr 3.4, ppe-only, qs22-4spe)",
  };
  std::size_t k = 0;
  for (const std::uint64_t base_seed : {2026u, 2027u, 7u}) {
    for (std::size_t i = 0; i < 8; ++i, ++k) {
      const FuzzCase scenario =
          make_case(case_seed_of(base_seed, i), FuzzOptions{});
      EXPECT_EQ(scenario.to_string(), expected[k])
          << "base seed " << base_seed << ", index " << i;
    }
  }
}

TEST(FuzzSmoke, CaseSeedsOfAStreamAreDistinct) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(seen.insert(case_seed_of(2026, i)).second) << "index " << i;
  }
}

TEST(FuzzSmoke, BoundedFuzzRunHoldsAllInvariants) {
  FuzzOptions options;
  options.base_seed = 42;
  options.cases = 40;
  options.instances = 120;
  options.milp_time_limit = 2.0;
  std::ostringstream log;
  const FuzzReport report = run_fuzz(options, &log);
  EXPECT_TRUE(report.ok()) << report.summary() << "\n" << log.str();
  EXPECT_EQ(report.cases_run, 40u);
  EXPECT_EQ(report.pipelines_simulated, 40u);
}

TEST(FuzzSmoke, SingleCaseReproductionMatchesTheStream) {
  FuzzOptions options;
  options.base_seed = 42;
  options.instances = 120;
  const std::uint64_t seed = case_seed_of(options.base_seed, 5);
  const FuzzCase scenario = make_case(seed, options);
  const std::vector<Violation> first = run_case(scenario, options);
  const std::vector<Violation> second = run_case(scenario, options);
  EXPECT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < std::min(first.size(), second.size()); ++i) {
    EXPECT_EQ(first[i].detail, second[i].detail);
  }
}

}  // namespace
}  // namespace cellstream::check
