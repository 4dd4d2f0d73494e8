// Regression pins from the 2,000-case fault sweeps (cellstream_fuzz
// --cases 2000 --fault-prob 1, --seed 1 and --seed 77).  Each of these
// cases once failed I1's middle-half throughput check on a failover phase:
// after a transient fault ends, the component it held back catches up at
// its own speed, so the middle half of a short phase can run well above
// 1/T although the whole run stays under it.  I1 now compares the middle
// half only on runs where no slowdown, hang or DMA retry fired.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "check/fuzz_driver.hpp"

namespace cellstream::check {
namespace {

TEST(FaultFuzzRegression, CatchUpAfterATransientFaultIsNoViolation) {
  FuzzOptions options;
  options.fault_probability = 1.0;
  for (const std::uint64_t seed :
       {11006270355783838631ULL, 17019704978002965483ULL,
        1544949633862225258ULL, 14921033578078201178ULL,
        18124416362137106567ULL, 6451407990891286625ULL}) {
    const FuzzCase scenario = make_case(seed, options);
    EXPECT_TRUE(scenario.with_faults) << scenario.to_string();
    const std::vector<Violation> violations = run_case(scenario, options);
    std::ostringstream os;
    for (const Violation& v : violations) {
      os << "[" << v.invariant << "] " << v.detail << "\n";
    }
    EXPECT_TRUE(violations.empty()) << scenario.to_string() << ":\n"
                                    << os.str();
  }
}

}  // namespace
}  // namespace cellstream::check
