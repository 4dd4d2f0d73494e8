#pragma once
// Test-local reference: the paper's Linear Program (1) with its n^2
// transfer variables beta_{i,j}^{k,l} per edge, as the mapper built it
// before the compact routing formulation.  It is kept only to check that
// formulation against (rule D7, docs/TESTING.md); nothing in src/ uses it.

#include <vector>

#include "core/steady_state.hpp"
#include "lp/problem.hpp"

namespace cellstream::mapping::reference {

struct BetaFormulation {
  lp::Problem problem;
  std::vector<std::vector<lp::VarId>> alpha;  ///< alpha[k][i]
  std::vector<std::vector<lp::VarId>> beta;   ///< beta[e][i * n + j]
  lp::VarId period_var = 0;
};

inline BetaFormulation build_beta_formulation(
    const SteadyStateAnalysis& analysis) {
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  const std::size_t n = platform.pe_count();
  const std::size_t K = graph.task_count();
  const double bw = platform.interface_bandwidth;
  const double budget = static_cast<double>(platform.buffer_budget());
  const bool shared =
      analysis.buffer_policy() == BufferPolicy::kSharedColocated;

  BetaFormulation f;
  lp::Problem& p = f.problem;
  f.period_var = p.add_variable(0.0, lp::kInfinity, 1.0);
  f.alpha.assign(K, {});
  for (TaskId k = 0; k < K; ++k) {
    for (PeId i = 0; i < n; ++i) {
      f.alpha[k].push_back(p.add_variable(0.0, 1.0, 0.0));
    }
  }
  f.beta.assign(graph.edge_count(), {});
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    for (std::size_t ij = 0; ij < n * n; ++ij) {
      f.beta[e].push_back(p.add_variable(0.0, 1.0, 0.0));
    }
  }

  // (1b) assignment.
  for (TaskId k = 0; k < K; ++k) {
    std::vector<lp::Coefficient> row;
    for (PeId i = 0; i < n; ++i) row.push_back({f.alpha[k][i], 1.0});
    p.add_row(1.0, 1.0, row);
  }
  // (1c) sum_i beta[e][i][j] >= alpha[l][j]; (1d) sum_j beta[e][i][j] <=
  // alpha[k][i].
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    for (PeId j = 0; j < n; ++j) {
      std::vector<lp::Coefficient> row;
      for (PeId i = 0; i < n; ++i) row.push_back({f.beta[e][i * n + j], 1.0});
      row.push_back({f.alpha[edge.to][j], -1.0});
      p.add_row(0.0, lp::kInfinity, row);
    }
    for (PeId i = 0; i < n; ++i) {
      std::vector<lp::Coefficient> row;
      for (PeId j = 0; j < n; ++j) row.push_back({f.beta[e][i * n + j], 1.0});
      row.push_back({f.alpha[edge.from][i], -1.0});
      p.add_row(-lp::kInfinity, 0.0, row);
    }
  }
  // (1e)/(1f) compute.
  for (PeId i = 0; i < n; ++i) {
    std::vector<lp::Coefficient> row;
    for (TaskId k = 0; k < K; ++k) {
      const Task& task = graph.task(k);
      const double w = platform.is_ppe(i) ? task.wppe : task.wspe;
      if (w != 0.0) row.push_back({f.alpha[k][i], w});
    }
    row.push_back({f.period_var, -1.0});
    p.add_row(-lp::kInfinity, 0.0, row);
  }
  // (1g)/(1h) interface bandwidth.
  for (PeId i = 0; i < n; ++i) {
    std::vector<lp::Coefficient> in_row, out_row;
    for (TaskId k = 0; k < K; ++k) {
      const Task& task = graph.task(k);
      if (task.read_bytes != 0.0) {
        in_row.push_back({f.alpha[k][i], task.read_bytes / bw});
      }
      if (task.write_bytes != 0.0) {
        out_row.push_back({f.alpha[k][i], task.write_bytes / bw});
      }
    }
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      const double secs = graph.edge(e).data_bytes / bw;
      if (secs == 0.0) continue;
      for (PeId other = 0; other < n; ++other) {
        if (other == i) continue;
        in_row.push_back({f.beta[e][other * n + i], secs});
        out_row.push_back({f.beta[e][i * n + other], secs});
      }
    }
    in_row.push_back({f.period_var, -1.0});
    out_row.push_back({f.period_var, -1.0});
    p.add_row(-lp::kInfinity, 0.0, in_row);
    p.add_row(-lp::kInfinity, 0.0, out_row);
  }
  // Inter-chip links.
  if (platform.chip_count > 1) {
    for (std::size_t chip = 0; chip < platform.chip_count; ++chip) {
      std::vector<lp::Coefficient> out_row, in_row;
      for (EdgeId e = 0; e < graph.edge_count(); ++e) {
        const double secs =
            graph.edge(e).data_bytes / platform.cross_chip_bandwidth;
        if (secs == 0.0) continue;
        for (PeId i = 0; i < n; ++i) {
          for (PeId j = 0; j < n; ++j) {
            if (!platform.crosses_chips(i, j)) continue;
            if (platform.chip_of(i) == chip) {
              out_row.push_back({f.beta[e][i * n + j], secs});
            }
            if (platform.chip_of(j) == chip) {
              in_row.push_back({f.beta[e][i * n + j], secs});
            }
          }
        }
      }
      if (out_row.empty() && in_row.empty()) continue;
      out_row.push_back({f.period_var, -1.0});
      in_row.push_back({f.period_var, -1.0});
      p.add_row(-lp::kInfinity, 0.0, out_row);
      p.add_row(-lp::kInfinity, 0.0, in_row);
    }
  }
  // (1i) local store, with the shared-buffer relief on beta[e][i][i].
  for (PeId i = platform.ppe_count; i < n; ++i) {
    std::vector<lp::Coefficient> row;
    for (TaskId k = 0; k < K; ++k) {
      const double buf = analysis.task_buffer_bytes(k);
      if (buf != 0.0) row.push_back({f.alpha[k][i], buf / budget});
    }
    if (shared) {
      for (EdgeId e = 0; e < graph.edge_count(); ++e) {
        const double relief = analysis.buffer_bytes(e) / budget;
        if (relief != 0.0) row.push_back({f.beta[e][i * n + i], -relief});
      }
    }
    if (row.empty()) continue;
    p.add_row(-lp::kInfinity, 1.0, row);
  }
  // Strengthening of (1i): impossible tasks off the SPEs, conflict pairs.
  for (TaskId k = 0; k < K; ++k) {
    double min_need = analysis.task_buffer_bytes(k);
    if (shared) {
      for (EdgeId e : graph.in_edges(k)) {
        min_need -= analysis.buffer_bytes(e) / 2.0;
      }
      for (EdgeId e : graph.out_edges(k)) {
        min_need -= analysis.buffer_bytes(e) / 2.0;
      }
    }
    if (min_need > budget) {
      for (PeId i = platform.ppe_count; i < n; ++i) {
        p.set_variable_bounds(f.alpha[k][i], 0.0, 0.0);
      }
    }
  }
  std::size_t conflict_rows = 0;
  const std::size_t kMaxConflictPairs = shared ? 0 : 400;
  for (TaskId k = 0; k < K && conflict_rows < kMaxConflictPairs; ++k) {
    const double buf_k = analysis.task_buffer_bytes(k);
    if (buf_k == 0.0 || buf_k > budget) continue;
    for (TaskId l = k + 1; l < K && conflict_rows < kMaxConflictPairs; ++l) {
      const double buf_l = analysis.task_buffer_bytes(l);
      if (buf_l == 0.0 || buf_l > budget) continue;
      if (buf_k + buf_l <= budget) continue;
      ++conflict_rows;
      for (PeId i = platform.ppe_count; i < n; ++i) {
        p.add_row(-lp::kInfinity, 1.0,
                  {{f.alpha[k][i], 1.0}, {f.alpha[l][i], 1.0}});
      }
    }
  }
  // (1j) incoming DMA slots per SPE.
  for (PeId j = platform.ppe_count; j < n; ++j) {
    std::vector<lp::Coefficient> row;
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      for (PeId i = 0; i < n; ++i) {
        if (i != j) row.push_back({f.beta[e][i * n + j], 1.0});
      }
    }
    if (row.empty()) continue;
    p.add_row(-lp::kInfinity, static_cast<double>(platform.spe_dma_slots),
              row);
  }
  // (1k) SPE -> PPE proxy slots.
  for (PeId i = platform.ppe_count; i < n; ++i) {
    std::vector<lp::Coefficient> row;
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      for (PeId j = 0; j < platform.ppe_count; ++j) {
        row.push_back({f.beta[e][i * n + j], 1.0});
      }
    }
    if (row.empty()) continue;
    p.add_row(-lp::kInfinity,
              static_cast<double>(platform.ppe_to_spe_dma_slots), row);
  }
  return f;
}

}  // namespace cellstream::mapping::reference
