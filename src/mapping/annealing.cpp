#include "mapping/annealing.hpp"

#include <cmath>

#include "mapping/heuristics.hpp"
#include "support/rng.hpp"

namespace cellstream::mapping {

namespace {

/// Initial temperature as a fraction of the starting period (controls how
/// bad an uphill move can be and still get accepted early).
constexpr double kStartTemperature = 0.2;
/// Final temperature fraction (effectively greedy by the end).
constexpr double kEndTemperature = 1e-4;

}  // namespace

Mapping anneal_mapping(const SteadyStateAnalysis& analysis,
                       const Mapping& start,
                       const AnnealingOptions& options) {
  ResourceUsage scratch;  // the account of every candidate
  analysis.account(start, scratch);
  CS_ENSURE(analysis.within_limits(scratch),
            "anneal_mapping: infeasible start");
  CS_ENSURE(options.iterations >= 1, "anneal_mapping: zero iterations");

  const std::size_t n = analysis.platform().pe_count();
  const std::size_t tasks = start.task_count();
  if (n <= 1 || tasks == 0) return start;

  Rng rng(options.seed);
  Mapping current = start;
  double current_period = scratch.period;
  Mapping best = current;
  double best_period = current_period;

  const double t0 = kStartTemperature * current_period;
  const double t1 = kEndTemperature * current_period;
  const double cooling =
      std::pow(t1 / t0, 1.0 / static_cast<double>(options.iterations));

  double temperature = t0;
  for (std::size_t iter = 0; iter < options.iterations; ++iter) {
    temperature *= cooling;
    const TaskId task = static_cast<TaskId>(
        rng.uniform_int(0, static_cast<std::int64_t>(tasks) - 1));
    const PeId old_pe = current.pe_of(task);
    const PeId new_pe = static_cast<PeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (new_pe == old_pe) continue;

    current.assign(task, new_pe);
    analysis.account(current, scratch);
    if (!analysis.within_limits(scratch)) {
      current.assign(task, old_pe);
      continue;
    }
    const double candidate_period = scratch.period;
    const double delta = candidate_period - current_period;
    const bool accept =
        delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
    if (!accept) {
      current.assign(task, old_pe);
      continue;
    }
    current_period = candidate_period;
    if (current_period < best_period) {
      best_period = current_period;
      best = current;
    }
  }
  return best;
}

Mapping annealing_heuristic(const SteadyStateAnalysis& analysis,
                            const AnnealingOptions& options) {
  Mapping start = greedy_cpu(analysis);
  if (!analysis.feasible(start)) start = ppe_only(analysis);
  return anneal_mapping(analysis, start, options);
}

}  // namespace cellstream::mapping
