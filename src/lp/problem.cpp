#include "lp/problem.hpp"

#include <algorithm>
#include <cmath>

namespace cellstream::lp {

VarId Problem::add_variable(double lo, double up, double cost) {
  CS_ENSURE(lo <= up, "add_variable: empty bound interval");
  CS_ENSURE(!std::isnan(lo) && !std::isnan(up) && !std::isnan(cost),
            "add_variable: NaN parameter");
  cost_.push_back(cost);
  var_lo_.push_back(lo);
  var_up_.push_back(up);
  return cost_.size() - 1;
}

RowId Problem::add_row(double lo, double up, std::vector<Coefficient> coefs) {
  CS_ENSURE(lo <= up, "add_row: empty bound interval");
  for (const Coefficient& c : coefs) {
    CS_ENSURE(c.var < variable_count(), "add_row: unknown variable");
    CS_ENSURE(std::isfinite(c.value), "add_row: non-finite coefficient");
  }
  // Merge duplicates so solver columns are well-formed.
  std::sort(coefs.begin(), coefs.end(),
            [](const Coefficient& a, const Coefficient& b) {
              return a.var < b.var;
            });
  std::vector<Coefficient> merged;
  merged.reserve(coefs.size());
  for (const Coefficient& c : coefs) {
    if (!merged.empty() && merged.back().var == c.var) {
      merged.back().value += c.value;
    } else {
      merged.push_back(c);
    }
  }
  std::erase_if(merged, [](const Coefficient& c) { return c.value == 0.0; });

  row_lo_.push_back(lo);
  row_up_.push_back(up);
  rows_.push_back(std::move(merged));
  return row_lo_.size() - 1;
}

double Problem::objective_value(const std::vector<double>& x) const {
  CS_ENSURE(x.size() == variable_count(), "objective_value: size mismatch");
  double obj = 0.0;
  for (VarId v = 0; v < x.size(); ++v) obj += cost_[v] * x[v];
  return obj;
}

double Problem::max_violation(const std::vector<double>& x) const {
  CS_ENSURE(x.size() == variable_count(), "max_violation: size mismatch");
  double worst = 0.0;
  for (VarId v = 0; v < x.size(); ++v) {
    worst = std::max(worst, var_lo_[v] - x[v]);
    worst = std::max(worst, x[v] - var_up_[v]);
  }
  for (RowId r = 0; r < row_count(); ++r) {
    double activity = 0.0;
    for (const Coefficient& c : rows_[r]) activity += c.value * x[c.var];
    worst = std::max(worst, row_lo_[r] - activity);
    worst = std::max(worst, activity - row_up_[r]);
  }
  return worst;
}

}  // namespace cellstream::lp
