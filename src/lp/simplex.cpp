#include "lp/simplex.hpp"

#include "lp/sparse_lu.hpp"

#include <algorithm>
#include <memory>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

namespace cellstream::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

struct SparseEntry {
  std::size_t row;
  double value;
};

struct RowEntry {
  std::size_t col;
  double value;
};

// The indices of v's nonzero entries (NaN included) in ascending order,
// written to `index` (sized like v).  Branch-free, so the scan costs the
// same however the nonzeros are scattered.
std::span<const std::size_t> nonzero_indices(const std::vector<double>& v,
                                             std::vector<std::size_t>& index) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    index[count] = i;
    count += v[i] != 0.0 ? 1 : 0;
  }
  return {index.data(), count};
}

// Tolerances must be finite and nonnegative (the pivot tolerance strictly
// positive): pricing skips every column whose reduced cost is exactly
// zero, and the ratio test every zero entry of w, which is only the same
// as testing them when a zero can never pass a tolerance test.
void validate(const SimplexOptions& o) {
  const auto nonnegative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  CS_ENSURE(nonnegative(o.feasibility_tol),
            "SimplexOptions: feasibility_tol must be finite and >= 0");
  CS_ENSURE(nonnegative(o.optimality_tol),
            "SimplexOptions: optimality_tol must be finite and >= 0");
  CS_ENSURE(nonnegative(o.stall_progress_tol),
            "SimplexOptions: stall_progress_tol must be finite and >= 0");
  CS_ENSURE(std::isfinite(o.pivot_tol) && o.pivot_tol > 0.0,
            "SimplexOptions: pivot_tol must be finite and > 0");
}

}  // namespace

// ---------------------------------------------------------------------------
// Implementation state.  Columns 0..n_struct-1 are structural variables;
// column n_struct + r is the slack of row r with the single entry
// (r, -1), so every row reads  a.x - s = 0  and the RHS is zero.

struct IncrementalSimplex::Impl {
  SimplexOptions opts;
  std::size_t n_struct = 0;
  std::size_t m = 0;       // rows
  std::size_t ncols = 0;   // n_struct + m

  std::vector<std::vector<SparseEntry>> cols;
  // The same matrix row-wise, slacks included, for pricing: row r is
  // row_entries[row_start[r] .. row_start[r+1]).
  std::vector<std::size_t> row_start;
  std::vector<RowEntry> row_entries;
  std::vector<double> lo, up, cost;  // per column
  std::vector<std::size_t> cost_cols;  // columns with nonzero cost, ascending
  std::vector<VarStatus> status;     // per column
  std::vector<std::size_t> basic_col;   // per row: which column is basic
  std::vector<std::size_t> basis_row;   // per column: row if basic, else kNoRow
  std::vector<double> x;                // per column value

  // Basis factorization: sparse LU of B refreshed periodically, bridged by
  // product-form (eta) updates in between.  B_k^{-1} = E_k ... E_1 B_0^{-1}.
  SparseLu lu;
  SparseColumns basis_cols;  // factor input, reused across refactorizations
  struct Eta {
    std::size_t r;                 // pivot row of this update
    double wr;                     // w[r]
    std::vector<MatrixEntry> w;    // sparse copy of w = B^{-1} a_entering
  };
  std::vector<Eta> etas;
  std::size_t eta_nnz = 0;

  // Scratch buffers reused across iterations.
  std::vector<double> w, y, v;
  std::vector<double> grad;  // phase-1 gradient per row (-1/0/+1)
  std::vector<std::size_t> w_index, y_index;  // nonzero_indices storage
  std::span<const std::size_t> w_nonzeros;     // rows with w[i] != 0
  std::vector<double> dj;  // reduced costs of priced columns; +0 at rest
  IndexSet priced;         // columns pricing touched; empty at rest

  bool basis_ready = false;

  explicit Impl(const Problem& p, SimplexOptions options) : opts(options) {
    validate(opts);
    n_struct = p.variable_count();
    m = p.row_count();
    ncols = n_struct + m;
    cols.resize(ncols);
    lo.resize(ncols);
    up.resize(ncols);
    cost.assign(ncols, 0.0);
    for (VarId j = 0; j < n_struct; ++j) {
      lo[j] = p.var_lo(j);
      up[j] = p.var_up(j);
      cost[j] = p.cost(j);
      if (cost[j] != 0.0) cost_cols.push_back(j);
    }
    row_start.reserve(m + 1);
    row_start.push_back(0);
    for (RowId r = 0; r < m; ++r) {
      const std::size_t slack = n_struct + r;
      for (const Coefficient& c : p.row(r)) {
        cols[c.var].push_back({r, c.value});
        row_entries.push_back({c.var, c.value});
      }
      cols[slack].push_back({r, -1.0});
      row_entries.push_back({slack, -1.0});
      row_start.push_back(row_entries.size());
      lo[slack] = p.row_lo(r);
      up[slack] = p.row_up(r);
    }
    w.resize(m);
    y.resize(m);
    v.resize(m);
    grad.resize(m);
    w_index.resize(m);
    y_index.resize(m);
    dj.assign(ncols, 0.0);
    priced.reset(ncols);
    reset_basis();
  }

  // Nonbasic resting value for a column given its status.
  double nonbasic_value(std::size_t j, VarStatus s) const {
    switch (s) {
      case VarStatus::kAtLower: return lo[j];
      case VarStatus::kAtUpper: return up[j];
      case VarStatus::kFree: return 0.0;
      case VarStatus::kBasic: break;
    }
    CS_ASSERT(false, "nonbasic_value on a basic column");
    return 0.0;
  }

  VarStatus natural_status(std::size_t j) const {
    if (std::isfinite(lo[j])) return VarStatus::kAtLower;
    if (std::isfinite(up[j])) return VarStatus::kAtUpper;
    return VarStatus::kFree;
  }

  // Install the all-slack basis: every structural column nonbasic at its
  // natural bound, B = -I factored and the eta file dropped.  The slacks'
  // values are left for the caller to set or recompute.
  void install_slack_basis() {
    status.assign(ncols, VarStatus::kAtLower);
    basis_row.assign(ncols, kNoRow);
    basic_col.resize(m);
    for (std::size_t j = 0; j < n_struct; ++j) {
      status[j] = natural_status(j);
      x[j] = nonbasic_value(j, status[j]);
    }
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t slack = n_struct + r;
      status[slack] = VarStatus::kBasic;
      basic_col[r] = slack;
      basis_row[slack] = r;
    }
    etas.clear();
    eta_nnz = 0;
    basis_cols.resize(m);
    for (std::size_t r = 0; r < m; ++r) basis_cols[r].assign(1, {r, -1.0});
    const bool ok = lu.factor(basis_cols);
    CS_ASSERT(ok, "slack basis must factor");
  }

  void reset_basis() {
    x.assign(ncols, 0.0);
    install_slack_basis();
    basis_ready = true;
  }

  // out = B^{-1} * out (dense in/out): LU solve plus the eta file.
  void apply_inverse(std::vector<double>& out) {
    lu.solve(out);
    for (const Eta& e : etas) {
      const double t = out[e.r] / e.wr;
      if (t == 0.0) {
        out[e.r] = 0.0;
        continue;
      }
      for (const MatrixEntry& entry : e.w) {
        out[entry.row] -= t * entry.value;
      }
      out[e.r] = t;
    }
  }

  // w = B^{-1} * column(j).
  void ftran(std::size_t j, std::vector<double>& out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (const SparseEntry& e : cols[j]) out[e.row] += e.value;
    apply_inverse(out);
  }

  // y^T = g^T B^{-1}: apply eta transposes in reverse, then the LU.
  void btran(const std::vector<double>& g, std::vector<double>& out) {
    out = g;
    for (auto it = etas.rbegin(); it != etas.rend(); ++it) {
      double dot = 0.0;
      for (const MatrixEntry& entry : it->w) {
        dot += entry.value * out[entry.row];
      }
      out[it->r] -= (dot - out[it->r]) / it->wr;
    }
    lu.solve_transpose(out);
  }

  // Recompute basic values exactly: x_B = -B^{-1} (sum of nonbasic columns
  // times their resting values).
  void recompute_basics() {
    std::fill(v.begin(), v.end(), 0.0);
    for (std::size_t j = 0; j < ncols; ++j) {
      if (status[j] == VarStatus::kBasic) continue;
      x[j] = nonbasic_value(j, status[j]);
      if (x[j] == 0.0) continue;
      for (const SparseEntry& e : cols[j]) v[e.row] += e.value * x[j];
    }
    apply_inverse(v);
    for (std::size_t i = 0; i < m; ++i) x[basic_col[i]] = -v[i];
  }

  // Re-factorize the basis from scratch, dropping the eta file.  Returns
  // false (leaving the object on the all-slack basis) if singular.
  bool refactor() {
    basis_cols.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      basis_cols[r].clear();
      for (const SparseEntry& e : cols[basic_col[r]]) {
        basis_cols[r].push_back({e.row, e.value});
      }
    }
    etas.clear();
    eta_nnz = 0;
    if (lu.factor(basis_cols)) return true;
    // Singular: fall back to the always-valid slack basis.
    install_slack_basis();
    return false;
  }

  // Phase-1 gradient over rows: grad[i] = d(infeasibility)/d(x_basic_i);
  // returns the total infeasibility.
  double infeasibility() {
    const double tol = opts.feasibility_tol;
    double total = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = basic_col[i];
      double g = 0.0;
      if (x[j] < lo[j] - tol) {
        g = -1.0;
        total += lo[j] - x[j];
      } else if (x[j] > up[j] + tol) {
        g = 1.0;
        total += x[j] - up[j];
      }
      grad[i] = g;
    }
    return total;
  }

  struct Entering {
    std::size_t col = kNoRow;
    int dir = +1;  // +1: increase from lower/free, -1: decrease from upper.
    double score = 0.0;
  };

  // Row-wise pricing: d_j = c_j - y^T a_j accumulated only over the rows
  // with y[i] != 0, in ascending row order.  A column's entries are in
  // ascending row order too, so each d_j rounds exactly as the column-wise
  // sum would; the terms skipped here have y[i] == +-0 and could only flip
  // the sign of a zero d_j, which no tolerance test can see.  Every other
  // column has d_j == c_j: it is a candidate only with nonzero cost in
  // phase 2.  Basic columns never enter, so they are not accumulated.
  // Candidates are scanned in ascending column order, so ties and Bland's
  // rule pick the column a scan over all columns would.
  Entering price(bool phase1, bool bland) {
    if (!phase1) {
      for (std::size_t j : cost_cols) {
        dj[j] = cost[j];
        priced.insert(j);
      }
    }
    for (std::size_t i : nonzero_indices(y, y_index)) {
      const double yi = y[i];
      for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k) {
        const RowEntry& e = row_entries[k];
        if (status[e.col] == VarStatus::kBasic) continue;
        dj[e.col] -= yi * e.value;
        priced.insert(e.col);
      }
    }
    Entering best;
    bool chosen = false;  // Bland: the lowest candidate is final
    const double tol = opts.optimality_tol;
    priced.drain([&](std::size_t j) {
      const double d = dj[j];
      dj[j] = 0.0;
      const VarStatus s = status[j];
      if (chosen || s == VarStatus::kBasic) return;
      if (lo[j] == up[j]) return;  // fixed, never enters
      double score = 0.0;
      int dir = 0;
      if (s == VarStatus::kAtLower && d < -tol) {
        score = -d;
        dir = +1;
      } else if (s == VarStatus::kAtUpper && d > tol) {
        score = d;
        dir = -1;
      } else if (s == VarStatus::kFree && std::abs(d) > tol) {
        score = std::abs(d);
        dir = d < 0 ? +1 : -1;
      } else {
        return;
      }
      if (bland) {
        best = {j, dir, score};  // lowest index wins
        chosen = true;
      } else if (score > best.score) {
        best = {j, dir, score};
      }
    });
    return best;
  }

  struct Ratio {
    double t = std::numeric_limits<double>::infinity();
    std::size_t row = kNoRow;       // blocking basic row, or kNoRow
    bool entering_flip = false;     // entering hits its own far bound
    double leave_at = 0.0;          // bound value the leaving basic lands on
    bool leave_upper = false;
  };

  // Max step for entering column `q` moving in direction `dir`, with basic
  // deltas w = B^{-1} a_q (x_B changes by -dir*t*w).  In phase 1 an
  // infeasible basic blocks when it *reaches* the bound it violates.
  Ratio ratio_test(std::size_t q, int dir, bool phase1, bool bland) const {
    Ratio best;
    // Entering variable's own range.
    if (std::isfinite(lo[q]) && std::isfinite(up[q])) {
      best.t = up[q] - lo[q];
      best.entering_flip = true;
    }
    const double ptol = opts.pivot_tol;
    const double ftol = opts.feasibility_tol;
    double best_pivot_mag = 0.0;
    for (std::size_t i : w_nonzeros) {
      const double wi = w[i];
      if (std::abs(wi) < ptol) continue;
      const std::size_t j = basic_col[i];
      const double delta = -static_cast<double>(dir) * wi;  // dx_j/dt
      double bound = 0.0;
      bool towards_upper = false;
      if (phase1 && grad[i] != 0.0) {
        // Infeasible basic: blocks only while moving toward feasibility.
        if (grad[i] < 0.0) {  // below lower bound
          if (delta <= 0.0) continue;
          bound = lo[j];
          towards_upper = false;
        } else {  // above upper bound
          if (delta >= 0.0) continue;
          bound = up[j];
          towards_upper = true;
        }
      } else {
        if (delta > 0.0) {
          if (!std::isfinite(up[j])) continue;
          bound = up[j];
          towards_upper = true;
        } else {
          if (!std::isfinite(lo[j])) continue;
          bound = lo[j];
          towards_upper = false;
        }
      }
      double t = (bound - x[j]) / delta;
      if (t < 0.0) t = 0.0;  // degenerate (already at/over the bound)

      bool take = false;
      if (t < best.t - ftol) {
        take = true;  // strictly smaller step
      } else if (t < best.t + ftol) {
        // Near-tie.  Bland's rule: lowest leaving column index.  Normal
        // mode: largest pivot magnitude, for numerical stability.
        if (bland) {
          take = best.row == kNoRow || j < basic_col[best.row];
        } else {
          take = std::abs(wi) > best_pivot_mag;
        }
      }
      if (take) {
        best.t = t;
        best.row = i;
        best.entering_flip = false;
        best.leave_at = bound;
        best.leave_upper = towards_upper;
        best_pivot_mag = std::abs(wi);
      }
    }
    return best;
  }

  // Apply a pivot: entering q (direction dir) replaces the basic of row r.
  void pivot(std::size_t q, int dir, const Ratio& ratio) {
    const double t = ratio.t;
    // Move all basics.
    for (std::size_t i : w_nonzeros) {
      x[basic_col[i]] -= static_cast<double>(dir) * t * w[i];
    }
    const double enter_val = x[q] + static_cast<double>(dir) * t;

    if (ratio.entering_flip) {
      x[q] = dir > 0 ? up[q] : lo[q];
      status[q] = dir > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
      return;
    }

    const std::size_t r = ratio.row;
    const std::size_t leaving = basic_col[r];
    x[leaving] = ratio.leave_at;
    status[leaving] =
        ratio.leave_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    if (!std::isfinite(ratio.leave_at)) {
      // Can only happen through numerical noise; park the var at zero.
      x[leaving] = 0.0;
      status[leaving] = VarStatus::kFree;
    }
    basis_row[leaving] = kNoRow;

    x[q] = enter_val;
    status[q] = VarStatus::kBasic;
    basic_col[r] = q;
    basis_row[q] = r;

    // Record the product-form update: B_new^{-1} = E * B^{-1} with E
    // built from w = B^{-1} a_entering and the leaving row r.
    Eta eta;
    eta.r = r;
    eta.wr = w[r];
    eta.w.reserve(w_nonzeros.size());
    for (std::size_t i : w_nonzeros) eta.w.push_back({i, w[i]});
    eta_nnz += eta.w.size();
    etas.push_back(std::move(eta));
  }

  SimplexResult run() {
    SimplexResult result;
    // Sync nonbasic resting values with (possibly updated) bounds, then
    // compute basics exactly.
    for (std::size_t j = 0; j < ncols; ++j) {
      if (status[j] == VarStatus::kBasic) continue;
      // A bound may have vanished (e.g. un-fixing a binary): repair status.
      if (status[j] == VarStatus::kAtLower && !std::isfinite(lo[j])) {
        status[j] = natural_status(j);
      } else if (status[j] == VarStatus::kAtUpper && !std::isfinite(up[j])) {
        status[j] = natural_status(j);
      }
      x[j] = nonbasic_value(j, status[j]);
    }
    recompute_basics();

    // Anti-cycling: Bland's rule engages after `stall_limit` pivots without
    // *merit* progress (phase-1 infeasibility, phase-2 objective) relative
    // to the last reference point.  Counting degenerate steps instead (the
    // old scheme) was evadable: alternating degenerate and tiny-but-nonzero
    // steps reset the counter every other pivot and could cycle forever.
    // The reference only advances on measurable progress, so a long run of
    // sub-tolerance steps still trips the counter, while genuine cumulative
    // progress (many tiny steps adding up) resets it.
    std::size_t stalled_run = 0;
    double merit_ref = std::numeric_limits<double>::infinity();
    bool merit_ref_phase1 = true;
    for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
      if (etas.size() >= opts.refactor_interval || eta_nnz > 16 * m + 1024) {
        refactor();
        recompute_basics();
      }
      const double infeas = infeasibility();
      const bool phase1 = infeas > opts.feasibility_tol * 10.0;
      if (phase1) ++result.phase1_iterations;
      ++result.iterations;

      double merit = infeas;
      if (!phase1) {
        merit = 0.0;
        // A zero-cost term would add only a signed zero.
        for (std::size_t j : cost_cols) merit += cost[j] * x[j];
      }
      if (phase1 != merit_ref_phase1 ||
          merit_ref - merit >
              opts.stall_progress_tol * (1.0 + std::abs(merit_ref))) {
        stalled_run = 0;
        merit_ref = merit;
        merit_ref_phase1 = phase1;
      } else {
        ++stalled_run;
      }

      // Gradient for BTRAN: phase 1 uses the infeasibility gradient, phase
      // 2 the objective coefficients of the basics.
      if (!phase1) {
        for (std::size_t i = 0; i < m; ++i) grad[i] = cost[basic_col[i]];
      }
      btran(grad, y);

      const bool bland = stalled_run > opts.stall_limit;
      const Entering enter = price(phase1, bland);
      if (enter.col == kNoRow) {
        if (phase1) {
          result.status = SolveStatus::kInfeasible;
          return finish(result);
        }
        result.status = SolveStatus::kOptimal;
        return finish(result);
      }

      ftran(enter.col, w);
      w_nonzeros = nonzero_indices(w, w_index);
      const Ratio ratio = ratio_test(enter.col, enter.dir, phase1, bland);
      if (!std::isfinite(ratio.t)) {
        if (phase1) {
          // Gradient says improving but nothing blocks: numerical trouble.
          if (refactor()) {
            recompute_basics();
            continue;
          }
          result.status = SolveStatus::kInfeasible;
          return finish(result);
        }
        result.status = SolveStatus::kUnbounded;
        return finish(result);
      }
      pivot(enter.col, enter.dir, ratio);

      if ((iter + 1) % 128 == 0) recompute_basics();
    }
    result.status = SolveStatus::kIterationLimit;
    return finish(result);
  }

  SimplexResult finish(SimplexResult result) {
    recompute_basics();
    result.x.assign(x.begin(), x.begin() + static_cast<long>(n_struct));
    result.objective = 0.0;
    for (std::size_t j = 0; j < n_struct; ++j) {
      result.objective += cost[j] * x[j];
    }
    return result;
  }

  bool load_warm(const Basis& warm) {
    if (warm.status.size() != ncols || warm.basic_col.size() != m) {
      // A dimensionally stale basis (saved from a different problem shape)
      // must leave the instance in the documented all-slack state, not
      // whatever basis a previous solve left behind.
      reset_basis();
      return false;
    }
    status = warm.status;
    basic_col = warm.basic_col;
    basis_row.assign(ncols, kNoRow);
    for (std::size_t r = 0; r < m; ++r) {
      if (basic_col[r] >= ncols || basis_row[basic_col[r]] != kNoRow ||
          status[basic_col[r]] != VarStatus::kBasic) {
        reset_basis();
        return false;
      }
      basis_row[basic_col[r]] = r;
    }
    if (!refactor()) return false;
    basis_ready = true;
    return true;
  }
};

IncrementalSimplex::IncrementalSimplex(const Problem& problem,
                                       SimplexOptions options)
    : impl_(std::make_unique<Impl>(problem, options)) {}

IncrementalSimplex::~IncrementalSimplex() = default;

void IncrementalSimplex::set_variable_bounds(VarId var, double lo, double up) {
  CS_ENSURE(var < impl_->n_struct, "set_variable_bounds: not structural");
  CS_ENSURE(lo <= up, "set_variable_bounds: empty interval");
  impl_->lo[var] = lo;
  impl_->up[var] = up;
}

SimplexResult IncrementalSimplex::solve() { return impl_->run(); }

void IncrementalSimplex::reset_basis() { impl_->reset_basis(); }

bool IncrementalSimplex::load_basis(const Basis& basis) {
  return impl_->load_warm(basis);
}

Basis IncrementalSimplex::save_basis() const {
  Basis basis;
  basis.status = impl_->status;
  basis.basic_col = impl_->basic_col;
  return basis;
}

SimplexResult solve_lp(const Problem& problem, const SimplexOptions& options) {
  IncrementalSimplex solver(problem, options);
  return solver.solve();
}

}  // namespace cellstream::lp
