#pragma once
// Summary statistics the benchmark reports: medians and quartiles of
// repeated timings, geometric means of speed-ups, and the share of failed
// operations.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count).
/// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's own figures match the spread its users compute.
/// Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// Geometric mean of strictly positive values.  Throws on an empty input
/// or on a value <= 0 (a speed-up of 0 means a broken run, not a ratio).
double geomean(const std::vector<double>& values);

/// failed / attempted; 0 when nothing was attempted.
double failed_share(std::uint64_t failed, std::uint64_t attempted);

}  // namespace perfbench
