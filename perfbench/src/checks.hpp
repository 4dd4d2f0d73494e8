#pragma once
// Output checks of the benchmark.  An operation fails, and the run goes on,
// when it throws, when the MILP stops on its wall-clock safety limit, when
// a returned mapping is infeasible or worse than the best seeded heuristic
// incumbent, when an oracle report is not ok, or when the host runtime
// loses, duplicates or corrupts a stream instance.

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/steady_state.hpp"
#include "mapping/milp_mapper.hpp"

namespace perfbench {

/// What one operation got wrong; empty means it passed.
using Problems = std::vector<std::string>;

/// Counts operations and failed operations.
class Tally {
 public:
  /// Run one operation.  `op` returns the problems its output checks found;
  /// an exception counts as one more problem, so a broken operation never
  /// ends the run.
  template <class Op>
  void run(const std::string& what, Op&& op) {
    Problems problems;
    try {
      problems = op();
    } catch (const std::exception& e) {
      problems.push_back(std::string("threw: ") + e.what());
    }
    record(what, problems);
  }

  void record(const std::string& what, const Problems& problems);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// One line per problem, prefixed with the operation's name.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Best analytic period among the mapper's seeded incumbents (GREEDYMEM,
/// GREEDYCPU, PPE-only) that are feasible.
double best_seeded_period(const cellstream::SteadyStateAnalysis& analysis);

/// The solve stopped on its wall-clock limit.  A node-budget stop is not a
/// failure: it is deterministic, a time-limit stop depends on machine speed.
Problems milp_stop_problems(const cellstream::mapping::MilpMapperResult& result,
                            const cellstream::milp::Options& options);

/// The mapping is infeasible, or its analytic period exceeds
/// `incumbent_period`.
Problems mapping_problems(const cellstream::SteadyStateAnalysis& analysis,
                          const cellstream::Mapping& mapping,
                          double incumbent_period);

/// Every violation of an oracle verdict, tagged with its invariant.
Problems invariant_problems(const std::vector<cellstream::check::Violation>& violations);

}  // namespace perfbench
