#pragma once
// Reference mapping heuristics (paper Section 6.3) plus simple baselines.
//
// Both paper heuristics walk the tasks in topological order and never
// revisit a decision.  Memory feasibility (task buffers fitting in the
// SPE local store) is the admission criterion; the PPE is the fallback
// host since its main memory is unconstrained.
//
// The same two heuristics are the fast failover remap: after a PE fails,
// remap_after_failure keeps every surviving task in place and places the
// orphans by GREEDYMEM or GREEDYCPU over the surviving PEs — keeping the
// survivors where they are is what bounds the migration volume, and so
// the failover downtime (docs/ROBUSTNESS.md).  Its third strategy solves
// the mapping MILP on the reduced platform.

#include <string>

#include "core/steady_state.hpp"
#include "obs/recorder.hpp"

namespace cellstream::mapping {

/// GREEDYMEM: among the SPEs with enough free local store for the task's
/// buffers, pick the one with the least loaded memory; fall back to PPE0
/// (the lowest-index usable PPE).
Mapping greedy_mem(const SteadyStateAnalysis& analysis);

/// GREEDYCPU: among all PEs (SPEs with enough free memory, plus the PPE),
/// pick the one with the smallest accumulated computation load.
Mapping greedy_cpu(const SteadyStateAnalysis& analysis);

/// Everything on PPE0 — the paper's speed-up baseline.
Mapping ppe_only(const SteadyStateAnalysis& analysis);

/// Round-robin over all PEs in topological order, skipping SPEs whose
/// local store cannot take the task.  A deliberately naive extra baseline
/// for the ablation benches.
Mapping round_robin(const SteadyStateAnalysis& analysis);

/// Communication-aware greedy (our extension, the paper's future-work
/// "involved heuristic"): like GREEDYCPU but evaluates the candidate PE by
/// the resulting steady-state period (compute + interface occupation),
/// keeping memory feasibility as a hard filter.
Mapping greedy_period(const SteadyStateAnalysis& analysis);

/// Dispatch by name ("greedy-mem", "greedy-cpu", "ppe-only",
/// "round-robin", "greedy-period"); throws on unknown names.
Mapping run_heuristic(const std::string& name,
                      const SteadyStateAnalysis& analysis);

/// How remap_after_failure places the tasks of a failed PE.
enum class RemapStrategy { kGreedyMem, kGreedyCpu, kMilp };

/// The strategy's command-line name: "greedy-mem", "greedy-cpu", "milp".
const char* to_string(RemapStrategy strategy);

/// Read a strategy from outside input by its to_string name; throws Error
/// ("invalid failover strategy ...", listing the names) on any other.
RemapStrategy parse_remap_strategy(const std::string& name);

/// Degraded-mode remap after the fail-stop of `failed`.  The greedy
/// strategies leave the surviving assignment untouched and place the
/// tasks `failed` hosted in topological order by GREEDYMEM or GREEDYCPU
/// over the other PEs, which carry the survivors' loads; the GREEDYMEM
/// fallback is the lowest-index surviving PPE.  kMilp solves the mapping
/// MILP on the platform minus `failed` (at most 2 s), warm-started from
/// the GREEDYMEM remap, which a multi-chip platform keeps.  Throws Error
/// when no PPE survives (the stream needs main-memory access).  A greedy
/// result is local-store feasible by construction; the caller re-checks
/// DMA-slot feasibility (I9).
Mapping remap_after_failure(
    const SteadyStateAnalysis& analysis, const Mapping& mapping, PeId failed,
    RemapStrategy strategy = RemapStrategy::kGreedyMem);

/// Add the migration from `before` to `after` to `faults`: every task
/// whose host changed counts once, with its stream-buffer bytes
/// (SteadyStateAnalysis::task_buffer_bytes), the region re-established at
/// its new host.
void count_migration(const SteadyStateAnalysis& analysis,
                     const Mapping& before, const Mapping& after,
                     obs::FaultStats& faults);

}  // namespace cellstream::mapping
