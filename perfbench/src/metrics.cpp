#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles: need at least two values");
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method="exclusive": the i-th cut point sits at
  // rank i * (n + 1) / 4, interpolated between its neighbours.  The rank is
  // clamped to the data before the weight is taken, so on tiny inputs the
  // outer cut points extrapolate, exactly as Python's do.
  const auto n = static_cast<std::int64_t>(values.size());
  const std::int64_t m = n + 1;
  const auto cut = [&](std::int64_t i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return Quartiles{cut(1), cut(2), cut(3)};
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean: no values");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean: non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double failed_share(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
