#include "mapping/milp_mapper.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "mapping/heuristics.hpp"
#include "mapping/local_search.hpp"

namespace cellstream::mapping {

namespace {

/// Local-store bytes task k needs at least when it sits on a SPE.  Under
/// the shared-buffer policy the best case co-locates every incident edge,
/// whose partner task then holds the other copy of its buffer.
std::vector<double> min_buffer_need(const SteadyStateAnalysis& analysis) {
  const TaskGraph& graph = analysis.graph();
  const bool shared =
      analysis.buffer_policy() == BufferPolicy::kSharedColocated;
  std::vector<double> need(graph.task_count());
  for (TaskId k = 0; k < graph.task_count(); ++k) {
    need[k] = analysis.task_buffer_bytes(k);
    if (!shared) continue;
    for (EdgeId e : graph.in_edges(k)) {
      need[k] -= analysis.buffer_bytes(e) / 2.0;
    }
    for (EdgeId e : graph.out_edges(k)) {
      need[k] -= analysis.buffer_bytes(e) / 2.0;
    }
  }
  return need;
}

}  // namespace

Formulation build_formulation(const SteadyStateAnalysis& analysis) {
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  const std::size_t n = platform.pe_count();
  const std::size_t K = graph.task_count();
  const std::size_t E = graph.edge_count();
  const std::size_t nppe = platform.ppe_count;
  const double bw = platform.interface_bandwidth;
  const double budget = static_cast<double>(platform.buffer_budget());
  const bool shared =
      analysis.buffer_policy() == BufferPolicy::kSharedColocated;
  const std::vector<double> need = min_buffer_need(analysis);

  Formulation f;
  lp::Problem& p = f.problem;

  // Objective: minimize the period T.
  f.period_var = p.add_variable(0.0, lp::kInfinity, 1.0);

  // (1a) alpha domains.  A task whose buffers exceed the local store even
  // in the best case can never sit on a SPE (implied by (1i) at integral
  // alpha, much tighter in the relaxation).
  f.alpha.assign(K, {});
  for (TaskId k = 0; k < K; ++k) {
    f.alpha[k].reserve(n);
    for (PeId i = 0; i < n; ++i) {
      const double up = i >= nppe && need[k] > budget ? 0.0 : 1.0;
      f.alpha[k].push_back(p.add_variable(0.0, up, 0.0));
    }
  }
  // Routing columns: d_{e,i} (both endpoints of e on PE i) and D_{e,c}
  // (both on chip c; multi-chip only).
  f.colocated.assign(E, {});
  f.same_chip.assign(E, {});
  for (EdgeId e = 0; e < E; ++e) {
    for (PeId i = 0; i < n; ++i) {
      f.colocated[e].push_back(p.add_variable(0.0, 1.0, 0.0));
    }
    if (platform.chip_count > 1) {
      for (std::size_t c = 0; c < platform.chip_count; ++c) {
        f.same_chip[e].push_back(p.add_variable(0.0, 1.0, 0.0));
      }
    }
  }

  // (1b) every task on exactly one PE.
  for (TaskId k = 0; k < K; ++k) {
    std::vector<lp::Coefficient> row;
    for (PeId i = 0; i < n; ++i) row.push_back({f.alpha[k][i], 1.0});
    p.add_row(1.0, 1.0, row);
  }

  // (1c)/(1d) in per-PE form: d_{e,i} <= alpha_i^l and d_{e,i} <= alpha_i^k,
  // so alpha_i^l - d_{e,i} is the traffic of e into PE i and
  // alpha_i^k - d_{e,i} the traffic out of it.
  for (EdgeId e = 0; e < E; ++e) {
    const Edge& edge = graph.edge(e);
    for (PeId i = 0; i < n; ++i) {
      p.add_row(-lp::kInfinity, 0.0,
                {{f.colocated[e][i], 1.0}, {f.alpha[edge.to][i], -1.0}});
    }
    for (PeId i = 0; i < n; ++i) {
      p.add_row(-lp::kInfinity, 0.0,
                {{f.colocated[e][i], 1.0}, {f.alpha[edge.from][i], -1.0}});
    }
  }

  // (1e)/(1f) compute occupation below T on every PE.
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

  // (1g)/(1h) interface occupation below T (rows scaled by 1/bw so every
  // coefficient is in seconds).
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
    for (EdgeId e = 0; e < E; ++e) {
      const Edge& edge = graph.edge(e);
      const double secs = edge.data_bytes / bw;
      if (secs == 0.0) continue;
      in_row.push_back({f.alpha[edge.to][i], secs});
      in_row.push_back({f.colocated[e][i], -secs});
      out_row.push_back({f.alpha[edge.from][i], secs});
      out_row.push_back({f.colocated[e][i], -secs});
    }
    in_row.push_back({f.period_var, -1.0});
    out_row.push_back({f.period_var, -1.0});
    p.add_row(-lp::kInfinity, 0.0, in_row);
    p.add_row(-lp::kInfinity, 0.0, out_row);
  }

  // Section 7 extension: on multi-chip platforms the inter-chip link is a
  // shared resource in each direction (rows analogous to (1g)/(1h)).  With
  // D_{e,c} <= the chip-c sums of alpha^k and of alpha^l, the traffic of e
  // out of chip c is sum_{i in c} alpha_i^k - D_{e,c}, and into it
  // sum_{i in c} alpha_i^l - D_{e,c}.
  if (platform.chip_count > 1) {
    for (EdgeId e = 0; e < E; ++e) {
      const Edge& edge = graph.edge(e);
      for (std::size_t c = 0; c < platform.chip_count; ++c) {
        for (TaskId end : {edge.from, edge.to}) {
          std::vector<lp::Coefficient> row{{f.same_chip[e][c], 1.0}};
          for (PeId i = 0; i < n; ++i) {
            if (platform.chip_of(i) == c) {
              row.push_back({f.alpha[end][i], -1.0});
            }
          }
          p.add_row(-lp::kInfinity, 0.0, row);
        }
      }
    }
    for (std::size_t c = 0; c < platform.chip_count; ++c) {
      std::vector<lp::Coefficient> out_row, in_row;
      for (EdgeId e = 0; e < E; ++e) {
        const Edge& edge = graph.edge(e);
        const double secs = edge.data_bytes / platform.cross_chip_bandwidth;
        if (secs == 0.0) continue;
        for (PeId i = 0; i < n; ++i) {
          if (platform.chip_of(i) != c) continue;
          out_row.push_back({f.alpha[edge.from][i], secs});
          in_row.push_back({f.alpha[edge.to][i], secs});
        }
        out_row.push_back({f.same_chip[e][c], -secs});
        in_row.push_back({f.same_chip[e][c], -secs});
      }
      if (out_row.empty()) continue;
      out_row.push_back({f.period_var, -1.0});
      in_row.push_back({f.period_var, -1.0});
      p.add_row(-lp::kInfinity, 0.0, out_row);
      p.add_row(-lp::kInfinity, 0.0, in_row);
    }
  }

  // (1i) buffers of tasks on a SPE fit in its local store (scaled to 1).
  // Under the shared-buffer policy (the Section 4.2 optimization), an edge
  // whose endpoints are co-located on the SPE needs its buffer only once:
  // the relief is linear in d_{e,i}, which equals 1 exactly when both
  // endpoints sit on PE i.
  for (PeId i = nppe; i < n; ++i) {
    std::vector<lp::Coefficient> row;
    for (TaskId k = 0; k < K; ++k) {
      const double buf = analysis.task_buffer_bytes(k);
      if (buf != 0.0) row.push_back({f.alpha[k][i], buf / budget});
    }
    if (shared) {
      for (EdgeId e = 0; e < E; ++e) {
        const double relief = analysis.buffer_bytes(e) / budget;
        if (relief != 0.0) row.push_back({f.colocated[e][i], -relief});
      }
    }
    if (row.empty()) continue;
    p.add_row(-lp::kInfinity, 1.0, row);
  }

  // Strengthening of (1i), implied by it for integral alpha but tighter in
  // the relaxation: two tasks whose buffers jointly exceed the local store
  // cannot share a SPE.
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
      for (PeId i = nppe; i < n; ++i) {
        p.add_row(-lp::kInfinity, 1.0,
                  {{f.alpha[k][i], 1.0}, {f.alpha[l][i], 1.0}});
      }
    }
  }

  // (1j) at most spe_dma_slots distinct incoming transfers per SPE.
  for (PeId j = nppe; j < n; ++j) {
    std::vector<lp::Coefficient> row;
    for (EdgeId e = 0; e < E; ++e) {
      row.push_back({f.alpha[graph.edge(e).to][j], 1.0});
      row.push_back({f.colocated[e][j], -1.0});
    }
    if (row.empty()) continue;
    p.add_row(-lp::kInfinity, static_cast<double>(platform.spe_dma_slots),
              row);
  }

  // (1k) has no rows here: solve_optimal_mapping adds proxy-slot cuts
  // only when an answer breaks it (add_proxy_cuts).
  return f;
}

Mapping extract_mapping(const Formulation& formulation,
                        const std::vector<double>& x) {
  const std::size_t K = formulation.alpha.size();
  Mapping mapping(K, 0);
  for (TaskId k = 0; k < K; ++k) {
    PeId best = 0;
    double best_value = -1.0;
    for (PeId i = 0; i < formulation.alpha[k].size(); ++i) {
      const double value = x[formulation.alpha[k][i]];
      if (value > best_value) {
        best_value = value;
        best = i;
      }
    }
    mapping.assign(k, best);
  }
  return mapping;
}

std::vector<double> encode_mapping(const Formulation& formulation,
                                   const SteadyStateAnalysis& analysis,
                                   const Mapping& mapping) {
  std::vector<double> x(formulation.problem.variable_count(), 0.0);
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  for (TaskId k = 0; k < graph.task_count(); ++k) {
    x[formulation.alpha[k][mapping.pe_of(k)]] = 1.0;
  }
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    const PeId i = mapping.pe_of(edge.from);
    const PeId j = mapping.pe_of(edge.to);
    if (i == j) x[formulation.colocated[e][i]] = 1.0;
    if (!formulation.same_chip[e].empty() &&
        platform.chip_of(i) == platform.chip_of(j)) {
      x[formulation.same_chip[e][platform.chip_of(i)]] = 1.0;
    }
  }
  x[formulation.period_var] = analysis.period(mapping);
  return x;
}

std::size_t add_proxy_cuts(Formulation& f, const SteadyStateAnalysis& analysis,
                           const Mapping& mapping, PeId spe) {
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  std::vector<EdgeId> cut;
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    if (mapping.pe_of(graph.edge(e).from) == spe &&
        platform.is_ppe(mapping.pe_of(graph.edge(e).to))) {
      cut.push_back(e);
    }
  }
  for (PeId s = platform.ppe_count; s < platform.pe_count(); ++s) {
    std::vector<lp::Coefficient> row;
    for (EdgeId e : cut) {
      row.push_back({f.alpha[graph.edge(e).from][s], 1.0});
      for (PeId p = 0; p < platform.ppe_count; ++p) {
        row.push_back({f.alpha[graph.edge(e).to][p], 1.0});
      }
    }
    f.problem.add_row(-lp::kInfinity,
                      static_cast<double>(platform.ppe_to_spe_dma_slots +
                                          cut.size()),
                      std::move(row));
  }
  return platform.spe_count;
}

namespace {

/// Make a rounded mapping feasible by evicting, from the first SPE that
/// breaks a limit, its task with the largest buffers to the PPE.
/// Terminates: each step strictly shrinks some SPE's task set, and the
/// PPE-only mapping is always feasible.  `scratch` holds the account.
bool repair_mapping(const SteadyStateAnalysis& analysis, Mapping& mapping,
                    ResourceUsage& scratch) {
  const CellPlatform& platform = analysis.platform();
  for (std::size_t round = 0; round <= mapping.task_count(); ++round) {
    analysis.account(mapping, scratch);
    PeId violating = platform.pe_count();
    for (PeId pe = platform.ppe_count; pe < platform.pe_count(); ++pe) {
      if (analysis.broken_limits(scratch, pe).any()) {
        violating = pe;
        break;
      }
    }
    if (violating == platform.pe_count()) return true;  // feasible
    // The first of the heaviest tasks in task-id order.
    std::optional<TaskId> evict;
    double heaviest = -1.0;
    for (TaskId t = 0; t < mapping.task_count(); ++t) {
      if (mapping.pe_of(t) != violating) continue;
      if (analysis.task_buffer_bytes(t) > heaviest) {
        heaviest = analysis.task_buffer_bytes(t);
        evict = t;
      }
    }
    if (!evict) return false;  // cannot happen; defensive
    mapping.assign(*evict, 0);
  }
  return false;
}

/// Local-search work of one mapper solve, shared by the rounding callback
/// on every B&B thread.  The counts are sums over the same calls whatever
/// the thread count; the seconds are a sum of wall times.
struct PolishTally {
  std::atomic<std::size_t> candidates{0};
  std::atomic<std::size_t> evaluations{0};
  std::atomic<double> seconds{0.0};

  /// improve_mapping, counted and timed.
  double polish(const SteadyStateAnalysis& analysis, Mapping& mapping,
                const LocalSearchOptions& options = {}) {
    const auto start = std::chrono::steady_clock::now();
    LocalSearchWork work;
    const double period = improve_mapping(analysis, mapping, options, &work);
    candidates.fetch_add(work.candidates, std::memory_order_relaxed);
    evaluations.fetch_add(work.evaluations, std::memory_order_relaxed);
    seconds.fetch_add(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count(),
                      std::memory_order_relaxed);
    return period;
  }
};

}  // namespace

MilpMapperResult solve_optimal_mapping(const SteadyStateAnalysis& analysis,
                                       const MilpMapperOptions& options) {
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();

  Formulation formulation = build_formulation(analysis);
  std::vector<lp::VarId> integer_vars;
  for (const auto& row : formulation.alpha) {
    integer_vars.insert(integer_vars.end(), row.begin(), row.end());
  }

  // Polish every seed with local search once: strong incumbents let the
  // branch-and-bound prune aggressively from the root.  Cuts add no
  // columns, so the encoded seeds stay valid in every round.
  PolishTally tally;
  ResourceUsage scratch;  // the account of every seed and answer
  std::vector<milp::Candidate> seeds;
  const auto add_seed = [&](Mapping m) {
    analysis.account(m, scratch);
    if (!analysis.within_limits(scratch)) return;
    const double period = tally.polish(analysis, m);
    seeds.push_back({period, encode_mapping(formulation, analysis, m)});
  };
  if (options.seed_with_heuristics) {
    for (const char* name :
         {"ppe-only", "greedy-mem", "greedy-cpu", "greedy-period"}) {
      add_seed(run_heuristic(name, analysis));
    }
  }
  for (const Mapping& warm : options.extra_incumbents) {
    CS_ENSURE(warm.task_count() == graph.task_count(),
              "solve_optimal_mapping: extra incumbent does not match graph");
    add_seed(warm);
  }

  milp::RoundingCallback rounding =
      [&formulation, &analysis, &tally](const std::vector<double>& x)
      -> std::optional<milp::Candidate> {
    Mapping rounded = extract_mapping(formulation, x);
    ResourceUsage repair_scratch;
    if (!repair_mapping(analysis, rounded, repair_scratch)) {
      return std::nullopt;
    }
    LocalSearchOptions polish;
    polish.max_passes = 2;
    polish.use_swaps = false;  // keep per-node cost low
    const double period = tally.polish(analysis, rounded, polish);
    return milp::Candidate{period,
                           encode_mapping(formulation, analysis, rounded)};
  };

  // Solve, and while the answer breaks (1k), cut it off and solve again;
  // the node and time limits are one budget for every round.
  MilpMapperResult out;
  std::size_t phase1_iterations = 0;
  milp::Result result;
  for (;;) {
    milp::Options round_options = options.milp;
    round_options.max_nodes -= out.nodes;
    round_options.time_limit_seconds -= out.solve_seconds;
    milp::Solver solver(formulation.problem, integer_vars, round_options);
    for (TaskId k = 0; k < graph.task_count(); ++k) {
      solver.add_exactly_one_group(formulation.alpha[k]);
      // Branch heavy tasks first: their placement moves the bound most.
      const double weight =
          std::max(graph.task(k).wppe, graph.task(k).wspe);
      for (lp::VarId v : formulation.alpha[k]) {
        solver.set_branch_priority(v, weight);
      }
    }
    for (const milp::Candidate& seed : seeds) {
      solver.add_initial_incumbent(seed);
    }
    solver.set_rounding_callback(rounding);

    result = solver.solve();
    CS_ENSURE(result.status == milp::Status::kOptimal ||
                  result.status == milp::Status::kLimitFeasible,
              "solve_optimal_mapping: no feasible mapping found (status " +
                  std::string(milp::to_string(result.status)) + ")");
    out.nodes += result.nodes;
    out.lp_iterations += result.lp_iterations;
    out.solve_seconds += result.solve_seconds;
    phase1_iterations += result.stats.phase1_iterations;

    out.mapping = extract_mapping(formulation, result.x);
    analysis.account(out.mapping, scratch);
    PeId broken = platform.ppe_count;
    while (broken < platform.pe_count() &&
           !analysis.broken_limits(scratch, broken).proxy_slots) {
      ++broken;
    }
    if (broken == platform.pe_count()) break;
    if (result.status == milp::Status::kOptimal &&
        out.nodes < options.milp.max_nodes &&
        out.solve_seconds < options.milp.time_limit_seconds) {
      out.proxy_cuts +=
          add_proxy_cuts(formulation, analysis, out.mapping, broken);
      continue;
    }
    // Out of budget: repair the answer, or fall back to a better seed.
    repair_mapping(analysis, out.mapping, scratch);
    for (const milp::Candidate& seed : seeds) {
      if (seed.objective < analysis.period(out.mapping)) {
        out.mapping = extract_mapping(formulation, seed.x);
      }
    }
    result.status = milp::Status::kLimitFeasible;
    const double period = analysis.period(out.mapping);
    result.gap = (period - result.best_bound) / period;
    break;
  }

  out.period = analysis.period(out.mapping);
  out.throughput = 1.0 / out.period;
  out.status = result.status;
  out.gap = result.gap;
  out.best_bound = result.best_bound;
  out.mapping_candidates = tally.candidates.load();
  out.mapping_evaluations = tally.evaluations.load();
  out.polish_seconds = tally.seconds.load();
  out.stats = result.stats;
  out.stats.nodes = out.nodes;
  out.stats.lp_iterations = out.lp_iterations;
  out.stats.phase1_iterations = phase1_iterations;
  return out;
}

obs::SolverStats solver_stats(const MilpMapperResult& result) {
  obs::SolverStats out;
  out.present = true;
  out.status = milp::to_string(result.status);
  out.nodes = result.nodes;
  out.rounds = result.stats.rounds;
  out.lp_iterations = result.lp_iterations;
  out.threads = result.stats.threads_used;
  out.objective = result.period;
  out.best_bound = result.best_bound;
  out.gap = result.gap;
  out.solve_seconds = result.solve_seconds;
  out.mapping_candidates = result.mapping_candidates;
  out.mapping_evaluations = result.mapping_evaluations;
  out.polish_seconds = result.polish_seconds;
  out.proxy_cuts = result.proxy_cuts;
  out.incumbents.reserve(result.stats.incumbents.size());
  for (const auto& p : result.stats.incumbents)
    out.incumbents.push_back({p.round, p.nodes, p.objective});
  return out;
}

}  // namespace cellstream::mapping
