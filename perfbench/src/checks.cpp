#include "checks.hpp"

#include <algorithm>
#include <limits>

#include "mapping/heuristics.hpp"

namespace perfbench {

using namespace cellstream;

void Tally::record(const std::string& what, const Problems& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& p : problems) failures_.push_back(what + ": " + p);
}

double best_seeded_period(const SteadyStateAnalysis& analysis) {
  double best = std::numeric_limits<double>::infinity();
  for (const Mapping& m : {mapping::greedy_mem(analysis),
                           mapping::greedy_cpu(analysis),
                           mapping::ppe_only(analysis)}) {
    if (analysis.feasible(m)) best = std::min(best, analysis.period(m));
  }
  return best;
}

Problems milp_stop_problems(const mapping::MilpMapperResult& result,
                            const milp::Options& options) {
  if (result.status == milp::Status::kLimitFeasible &&
      result.nodes < options.max_nodes) {
    return {"MILP stopped on its " + std::to_string(options.time_limit_seconds) +
            " s time limit (gap " + std::to_string(result.gap) + ")"};
  }
  return {};
}

Problems mapping_problems(const SteadyStateAnalysis& analysis,
                          const Mapping& mapping, double incumbent_period) {
  Problems problems;
  for (const std::string& v : analysis.violations(mapping)) {
    problems.push_back("infeasible mapping: " + v);
  }
  const double period = analysis.period(mapping);
  if (period > incumbent_period * (1.0 + 1e-9)) {
    problems.push_back("period " + std::to_string(period) +
                       " s exceeds the best seeded incumbent's " +
                       std::to_string(incumbent_period) + " s");
  }
  return problems;
}

Problems invariant_problems(const std::vector<check::Violation>& violations) {
  Problems problems;
  for (const check::Violation& v : violations) {
    problems.push_back(v.invariant + ": " + v.detail);
  }
  return problems;
}

}  // namespace perfbench
