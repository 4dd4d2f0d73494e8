#pragma once
// Linear-program container shared by the simplex solver and the MILP
// branch-and-bound.
//
// The canonical form is
//
//     minimize    c' x
//     subject to  row_lo <= A x <= row_up        (ranged rows)
//                 lo     <=   x <= up            (variable bounds)
//
// <=, >=, = rows are all expressed through the ranged form with infinite /
// equal bounds.  Infinity is represented by +-kInfinity.

#include <cstddef>
#include <limits>
#include <vector>

#include "support/error.hpp"

namespace cellstream::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

using VarId = std::size_t;
using RowId = std::size_t;

/// One nonzero coefficient of a row.
struct Coefficient {
  VarId var;
  double value;
};

/// Linear program in ranged-row form.  Append-only builder.
class Problem {
 public:
  /// Add a variable with bounds [lo, up] and objective coefficient `cost`.
  VarId add_variable(double lo, double up, double cost);

  /// Add a ranged row  lo <= sum coef_i * x_i <= up.  Coefficients with
  /// duplicate variables are summed.
  RowId add_row(double lo, double up, std::vector<Coefficient> coefs);

  std::size_t variable_count() const { return cost_.size(); }
  std::size_t row_count() const { return row_lo_.size(); }

  double cost(VarId v) const { return cost_[v]; }
  double var_lo(VarId v) const { return var_lo_[v]; }
  double var_up(VarId v) const { return var_up_[v]; }
  double row_lo(RowId r) const { return row_lo_[r]; }
  double row_up(RowId r) const { return row_up_[r]; }
  const std::vector<Coefficient>& row(RowId r) const { return rows_[r]; }

  /// Tighten the bounds of a variable (used by branch-and-bound to fix
  /// binaries).  The new interval need not be contained in the old one.
  void set_variable_bounds(VarId v, double lo, double up) {
    CS_ENSURE(v < variable_count(), "set_variable_bounds: bad variable");
    CS_ENSURE(lo <= up, "set_variable_bounds: empty interval");
    var_lo_[v] = lo;
    var_up_[v] = up;
  }

  /// Evaluate the objective at a point.
  double objective_value(const std::vector<double>& x) const;

  /// Largest violation of any row or variable bound at `x` (0 = feasible).
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<double> cost_;
  std::vector<double> var_lo_;
  std::vector<double> var_up_;

  std::vector<double> row_lo_;
  std::vector<double> row_up_;
  std::vector<std::vector<Coefficient>> rows_;
};

}  // namespace cellstream::lp
