#pragma once
// Steady-state analysis of a mapped streaming application (paper Sections
// 3.1, 4.2 and the constraint system of Section 5).
//
// Given a task graph, the *first period* of each task — the index of the
// schedule period in which its first instance is processed — is defined by
// the paper's recurrence (Section 4.2):
//
//   firstPeriod(T_k) = 0                                  if T_k has no pred,
//   firstPeriod(T_k) = max_{D_{j,k}} firstPeriod(T_j) + peek_k + 2  otherwise
//
// (+1 period for the predecessor's processing, +1 for communicating the
// result, +peek_k to accumulate the look-ahead instances).  firstPeriod is
// deliberately mapping-independent: the paper forgoes the optimization of
// skipping the communication period for co-located tasks, so buffer sizes
//
//   buff_{k,l} = data_{k,l} * (firstPeriod(T_l) - firstPeriod(T_k))
//
// are constants of the graph, shared by the MILP, the heuristics, the
// feasibility checker and the simulator.
//
// Given additionally a mapping, the steady-state period T is the largest
// per-instance occupation over all resources — PE compute time, and each
// PE interface's incoming and outgoing transfer time (memory reads/writes
// included) — and the throughput is rho = 1/T.
//
// Evaluating a mapping is split in two layers.  The numeric *account*
// (account() and within_limits()) fills per-PE and per-chip totals and the
// period into a ResourceUsage the caller owns, and decides the hard limits
// (1i)-(1k); once the caller's ResourceUsage is sized it allocates nothing
// and builds no strings, so the mapping searches (local search, annealing,
// the greedy constructions, exhaustive search, the MILP mapper's seeds and
// rounding callback) keep one per call and evaluate hundreds of thousands
// of candidates through it.  The *reports* are thin wrappers on top:
// usage() adds the bottleneck label, violations() one message per broken
// limit, and feasible() / period() / throughput() read single fields.
// Both layers compute every sum and comparison in the same order, so a
// search sees the same bits whichever one it calls.  The per-task,
// per-edge and per-PE tables the account sums are public read-only, so
// the local search can estimate a move's effect on the current account
// before it pays for a new one.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "core/task_graph.hpp"
#include "platform/cell.hpp"

namespace cellstream {

/// How stream buffers of an edge are accounted when both endpoints share a
/// processing element.
enum class BufferPolicy : std::uint8_t {
  /// The paper's implementation (Section 4.2): the buffer is allocated at
  /// both endpoints even when they are co-located.
  kDuplicated,
  /// The optimization the paper leaves as future work: co-located
  /// neighbours share one buffer, so a SPE hosting both endpoints of an
  /// edge charges its local store once instead of twice.
  kSharedColocated,
};

/// Per-resource occupation of one steady-state period, per stream instance.
struct ResourceUsage {
  /// Seconds of computation per instance on each PE.
  std::vector<double> compute_seconds;
  /// Bytes entering each PE's interface per instance (remote edge data in
  /// plus memory reads of the tasks it hosts).
  std::vector<double> incoming_bytes;
  /// Bytes leaving each PE's interface per instance (remote edge data out
  /// plus memory writes).
  std::vector<double> outgoing_bytes;
  /// Stream-buffer bytes resident in each PE's local store (0 for PPEs,
  /// whose main memory is unconstrained).
  std::vector<double> buffer_bytes;
  /// Number of distinct remote data received by each PE per period; limited
  /// to spe_dma_slots on SPEs (constraint 1j).
  std::vector<std::size_t> incoming_transfers;
  /// Number of distinct data each SPE sends to PPEs per period; limited to
  /// ppe_to_spe_dma_slots (constraint 1k).
  std::vector<std::size_t> to_ppe_transfers;
  /// Bytes leaving / entering each chip over the inter-chip link per
  /// instance (empty on single-chip platforms) — the Section 7 extension.
  std::vector<double> cross_chip_out_bytes;
  std::vector<double> cross_chip_in_bytes;

  /// Steady-state period: max over PEs of compute and transfer times.
  double period = 0.0;

  /// The kind of resource that determines the period, and the PE (compute,
  /// incoming, outgoing) or chip (link out, link in) it belongs to;
  /// kNone while the period is 0.
  enum class Resource : std::uint8_t {
    kNone,
    kCompute,
    kIncoming,
    kOutgoing,
    kLinkOut,
    kLinkIn,
  };
  Resource bottleneck_resource = Resource::kNone;
  std::size_t bottleneck_index = 0;
  /// The same resource as a label ("SPE3 compute", ...); filled by
  /// SteadyStateAnalysis::usage() only, empty after account().
  std::string bottleneck;
};

/// Which of the hard limits one SPE breaks in an account.
struct LimitBreaks {
  bool buffers = false;      ///< (1i) local-store budget.
  bool dma_slots = false;    ///< (1j) incoming DMA slots.
  bool proxy_slots = false;  ///< (1k) SPE->PPE proxy DMA slots.
  bool any() const { return buffers || dma_slots || proxy_slots; }
};

/// Precomputed steady-state quantities for one (graph, platform) pair.
///
/// Owns copies of the graph and platform (both cheap), so the analysis can
/// outlive its constructor arguments; the mapping varies per query so one
/// analysis serves many candidate mappings (the heuristics and the B&B
/// incumbent checks evaluate thousands).  All queries are const and keep
/// no state between calls, so one analysis serves concurrent callers.
class SteadyStateAnalysis {
 public:
  SteadyStateAnalysis(TaskGraph graph, CellPlatform platform,
                      BufferPolicy buffer_policy = BufferPolicy::kDuplicated);

  BufferPolicy buffer_policy() const { return buffer_policy_; }

  const TaskGraph& graph() const { return graph_; }
  const CellPlatform& platform() const { return platform_; }

  /// firstPeriod(T_k) for every task (paper Section 4.2).
  const std::vector<std::int64_t>& first_periods() const {
    return first_periods_;
  }

  /// buff_{k,l} in bytes for every edge.
  double buffer_bytes(EdgeId edge) const {
    CS_ENSURE(edge < edge_loads_.size(), "buffer_bytes: bad edge");
    return edge_loads_[edge].buffer_bytes;
  }

  /// Number of instances the buffer of `edge` holds:
  /// firstPeriod(to) - firstPeriod(from).
  std::int64_t buffer_depth(EdgeId edge) const {
    CS_ENSURE(edge < edge_buffer_depth_.size(), "buffer_depth: bad edge");
    return edge_buffer_depth_[edge];
  }

  /// Local-store bytes task `t` requires when placed on a SPE: the buffers
  /// of all its incoming and outgoing edges (both allocated even when the
  /// neighbour is co-located — paper Section 4.2).
  double task_buffer_bytes(TaskId t) const {
    CS_ENSURE(t < task_loads_.size(), "task_buffer_bytes: bad task");
    return task_loads_[t].buffer_bytes;
  }

  /// What a task charges the PE that hosts it, per instance.
  struct TaskLoad {
    double wppe = 0.0;
    double wspe = 0.0;
    double read_bytes = 0.0;
    double write_bytes = 0.0;
    double buffer_bytes = 0.0;  ///< On a SPE: the buffers of all its edges.
  };
  /// What an edge charges when its endpoints sit apart (or, for the
  /// shared-buffer policy, together).
  struct EdgeLoad {
    TaskId from = 0;
    TaskId to = 0;
    double data_bytes = 0.0;
    double buffer_bytes = 0.0;  ///< buff_{k,l}.
  };

  /// The read-only tables account() sums, for searches that update an
  /// account incrementally (mapping/local_search.cpp): one TaskLoad per
  /// task, one EdgeLoad per edge, the edges incident to each task (out
  /// edges, then in edges, each in edge-id order), the chip of each PE
  /// and the local-store bytes available for buffers.
  const std::vector<TaskLoad>& task_loads() const { return task_loads_; }
  const std::vector<EdgeLoad>& edge_loads() const { return edge_loads_; }
  std::span<const EdgeId> incident_edges(TaskId t) const {
    return {incident_.data() + incident_begin_[t],
            incident_.data() + incident_begin_[t + 1]};
  }
  const std::vector<std::size_t>& chip_of() const { return chip_of_; }
  double buffer_budget() const { return buffer_budget_; }

  /// The numeric account of `mapping`: every field of `out` except the
  /// bottleneck label, which is left empty.  Reuses `out`'s storage, so
  /// a caller that keeps one ResourceUsage across calls allocates only
  /// when the platform grows.  Throws on a mapping of the wrong size or
  /// onto unknown PEs.
  void account(const Mapping& mapping, ResourceUsage& out) const;

  /// Limits (1i)-(1k) that SPE `spe` breaks in the account `usage`.
  LimitBreaks broken_limits(const ResourceUsage& usage, PeId spe) const;

  /// True when no SPE breaks a limit in the account `usage`: the mapping
  /// it was filled from is feasible.
  bool within_limits(const ResourceUsage& usage) const;

  /// Full per-resource accounting for `mapping`, with the bottleneck
  /// label.
  ResourceUsage usage(const Mapping& mapping) const;

  /// Steady-state period of `mapping` (max resource occupation); ignores
  /// feasibility of memory/DMA constraints — check those separately.
  double period(const Mapping& mapping) const;

  /// Throughput rho = 1/period, in instances per second.
  double throughput(const Mapping& mapping) const;

  /// All hard-constraint violations of `mapping`: SPE local-store
  /// overflow (1i), incoming DMA slots (1j), SPE->PPE DMA slots (1k).
  /// Empty result means the mapping is feasible.
  std::vector<std::string> violations(const Mapping& mapping) const;

  bool feasible(const Mapping& mapping) const;

 private:
  TaskGraph graph_;
  CellPlatform platform_;
  BufferPolicy buffer_policy_ = BufferPolicy::kDuplicated;
  std::vector<std::int64_t> first_periods_;
  std::vector<std::int64_t> edge_buffer_depth_;
  std::vector<TaskLoad> task_loads_;
  std::vector<EdgeLoad> edge_loads_;
  std::vector<std::size_t> incident_begin_;  ///< Per task, K + 1 offsets.
  std::vector<EdgeId> incident_;
  std::vector<std::size_t> chip_of_;  ///< Per PE.
  double buffer_budget_ = 0.0;        ///< Local-store bytes for buffers.
};

/// Standalone firstPeriod computation (exposed for tests and the simulator).
std::vector<std::int64_t> compute_first_periods(const TaskGraph& graph);

}  // namespace cellstream
