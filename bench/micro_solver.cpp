// Micro-benchmarks (google-benchmark) for the optimization substrates:
// sparse LU factor/solve, simplex LP solves, full MILP mapping solves at
// several graph sizes, and the mapping evaluation under the local search.
// These guard against performance regressions in the solver stack that
// the figure benches depend on.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "gen/daggen.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse_lu.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/local_search.hpp"
#include "mapping/milp_mapper.hpp"
#include "support/rng.hpp"

namespace {

using namespace cellstream;

// Diagonal in [2, 6] plus up to four entries in [-1, 1] at random rows
// within `band` rows of the diagonal (anywhere in the column when
// band >= n).
lp::SparseColumns random_sparse_matrix(std::size_t n, std::uint64_t seed,
                                       std::size_t band) {
  Rng rng(seed);
  lp::SparseColumns a(n);
  for (std::size_t j = 0; j < n; ++j) {
    a[j].push_back({j, rng.uniform(2.0, 6.0)});
    const std::size_t first = j > band ? j - band : 0;
    const std::size_t last = std::min(n - 1, j + band);
    for (int t = 0; t < 4; ++t) {
      const std::size_t r = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(first),
                          static_cast<std::int64_t>(last)));
      if (r != j) a[j].push_back({r, rng.uniform(-1.0, 1.0)});
    }
  }
  return a;
}

// Unstructured pattern: fill grows ~15x per 4x in n, so the factor's
// cost is its arithmetic on the fill.
void BM_SparseLuFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lp::SparseColumns a = random_sparse_matrix(n, 42, n);
  lp::SparseLu lu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.factor(a));
  }
  state.counters["fill"] = static_cast<double>(lu.fill());
}
BENCHMARK(BM_SparseLuFactor)->Arg(256)->Arg(1024)->Arg(4096);

// Entries within 8 rows of the diagonal: fill grows linearly in n, like
// the simplex bases, so the per-factor time shows how the elimination
// finds the columns to apply rather than the arithmetic.
void BM_SparseLuFactorBanded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lp::SparseColumns a = random_sparse_matrix(n, 42, 8);
  lp::SparseLu lu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.factor(a));
  }
  state.counters["fill"] = static_cast<double>(lu.fill());
}
BENCHMARK(BM_SparseLuFactorBanded)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SparseLuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lp::SparseColumns a = random_sparse_matrix(n, 42, n);
  lp::SparseLu lu;
  if (!lu.factor(a)) state.SkipWithError("singular");
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    std::vector<double> x = b;
    lu.solve(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SparseLuSolve)->Arg(1024)->Arg(4096);

// Unit right-hand side e_{n/2} on the banded matrix, the shape of a
// simplex FTRAN/BTRAN: the solves work on the reach of the right-hand
// side (reported as "nnz", the solution's nonzeros), so apart from a few
// streaming length-n passes their cost follows the reach, not n.
template <bool kTranspose>
void sparse_lu_solve_unit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lp::SparseColumns a = random_sparse_matrix(n, 42, 8);
  lp::SparseLu lu;
  if (!lu.factor(a)) state.SkipWithError("singular");
  std::vector<double> b(n, 0.0);
  b[n / 2] = 1.0;
  std::vector<double> x(n);
  for (auto _ : state) {
    x = b;
    if (kTranspose) {
      lu.solve_transpose(x);
    } else {
      lu.solve(x);
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["nnz"] = static_cast<double>(
      std::count_if(x.begin(), x.end(), [](double v) { return v != 0.0; }));
}

void BM_SparseLuSolveUnit(benchmark::State& state) {
  sparse_lu_solve_unit<false>(state);
}
BENCHMARK(BM_SparseLuSolveUnit)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SparseLuSolveTransposeUnit(benchmark::State& state) {
  sparse_lu_solve_unit<true>(state);
}
BENCHMARK(BM_SparseLuSolveTransposeUnit)->Arg(1024)->Arg(4096)->Arg(16384);

lp::Problem mapping_lp(std::size_t tasks) {
  gen::DagGenParams params;
  params.task_count = tasks;
  params.seed = tasks;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 0.775);
  SteadyStateAnalysis analysis(std::move(graph),
                               platforms::qs22_single_cell());
  return mapping::build_formulation(analysis).problem;
}

void BM_SimplexMappingRelaxation(benchmark::State& state) {
  const lp::Problem problem = mapping_lp(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const lp::SimplexResult r = lp::solve_lp(problem);
    if (r.status != lp::SolveStatus::kOptimal) state.SkipWithError("not optimal");
    benchmark::DoNotOptimize(r.objective);
  }
  state.counters["rows"] = static_cast<double>(problem.row_count());
  state.counters["cols"] = static_cast<double>(problem.variable_count());
}
BENCHMARK(BM_SimplexMappingRelaxation)->Arg(10)->Arg(25)->Arg(50)
    ->Unit(benchmark::kMillisecond);

void BM_MilpMapping(benchmark::State& state) {
  gen::DagGenParams params;
  params.task_count = static_cast<std::size_t>(state.range(0));
  params.seed = 5;
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 0.775);
  const SteadyStateAnalysis analysis(std::move(graph),
                                     platforms::qs22_single_cell());
  mapping::MilpMapperOptions opts;
  opts.milp.time_limit_seconds = 30.0;
  for (auto _ : state) {
    const auto r = mapping::solve_optimal_mapping(analysis, opts);
    benchmark::DoNotOptimize(r.period);
  }
}
BENCHMARK(BM_MilpMapping)->Arg(10)->Arg(25)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// Parallel branch-and-bound: same instance, varying worker threads.  The
// heuristic seeds are disabled and the gap set to 0 so the search explores
// a real tree; the result is bit-identical across thread counts (the
// solver's determinism guarantee), so the runs are directly comparable.
void BM_MilpMappingParallel(benchmark::State& state) {
  gen::DagGenParams params;
  params.task_count = static_cast<std::size_t>(state.range(0));
  params.seed = 1;  // a seed whose gap-0 tree is a few hundred nodes
  TaskGraph graph = gen::daggen_random(params);
  gen::set_ccr(graph, 0.775);
  const SteadyStateAnalysis analysis(std::move(graph),
                                     platforms::qs22_single_cell());
  mapping::MilpMapperOptions opts;
  opts.milp.relative_gap = 0.0;
  opts.milp.time_limit_seconds = 120.0;
  opts.seed_with_heuristics = false;
  opts.with_threads(static_cast<std::size_t>(state.range(1)));
  std::size_t nodes = 0;
  for (auto _ : state) {
    const auto r = mapping::solve_optimal_mapping(analysis, opts);
    nodes = r.nodes;
    benchmark::DoNotOptimize(r.period);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_MilpMappingParallel)
    ->Args({15, 1})->Args({15, 4})->Args({20, 1})->Args({20, 4})
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// Paper graph 1 (94 tasks) at CCR 0.775 on a QS22 with 8 SPEs: the
// paper-map point whose seeds and roundings the local search polishes.
SteadyStateAnalysis paper_graph1_8spes() {
  TaskGraph graph = gen::paper_graph(1);
  gen::set_ccr(graph, 0.775);
  return SteadyStateAnalysis(std::move(graph), platforms::qs22_with_spes(8));
}

// One candidate evaluation of the local search: the numeric account of
// the greedy-cpu mapping into a reused scratch, then the limit check.
void BM_EvaluateMapping(benchmark::State& state) {
  const SteadyStateAnalysis analysis = paper_graph1_8spes();
  const Mapping mapping = mapping::greedy_cpu(analysis);
  ResourceUsage scratch;
  for (auto _ : state) {
    analysis.account(mapping, scratch);
    benchmark::DoNotOptimize(analysis.within_limits(scratch));
    benchmark::DoNotOptimize(scratch.period);
  }
}
BENCHMARK(BM_EvaluateMapping);

// improve_mapping with default options from the greedy-cpu start.
void BM_ImproveMapping(benchmark::State& state) {
  const SteadyStateAnalysis analysis = paper_graph1_8spes();
  const Mapping start = mapping::greedy_cpu(analysis);
  mapping::LocalSearchWork work;
  for (auto _ : state) {
    Mapping mapping = start;
    work = {};
    benchmark::DoNotOptimize(
        mapping::improve_mapping(analysis, mapping, {}, &work));
  }
  state.counters["candidates"] = static_cast<double>(work.candidates);
  state.counters["evaluations"] = static_cast<double>(work.evaluations);
}
BENCHMARK(BM_ImproveMapping)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
