#pragma once
// Streaming-application model (paper Section 2.2).
//
// An application is a directed acyclic graph G_A = (V_A, E_A).  Nodes are
// tasks T_k; every instance of the stream traverses every task.  An edge
// D_{k,l} carries data_{k,l} bytes per instance from T_k to T_l.  A task
// T_k may additionally *peek* at the next peek_k instances of each of its
// inputs before processing instance i (video codecs encode deltas between
// frames), and reads/writes bytes from/to main memory each instance.
//
// Compute costs follow the unrelated-machine model: wppe(T_k) and
// wspe(T_k) are independent (a task can be faster on either core kind).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace cellstream {

using TaskId = std::size_t;
using EdgeId = std::size_t;

/// One node of the application graph.
struct Task {
  std::string name;        ///< Human-readable label ("T7").
  double wppe = 0.0;       ///< Seconds per instance on a PPE.
  double wspe = 0.0;       ///< Seconds per instance on a SPE.
  int peek = 0;            ///< Extra future instances of each input needed.
  double read_bytes = 0.0;   ///< Main-memory bytes read per instance.
  double write_bytes = 0.0;  ///< Main-memory bytes written per instance.
  bool stateful = false;   ///< Carries state across instances (informational;
                           ///< single-PE mappings always respect it).
};

/// One dependency edge D_{k,l} of the application graph.
struct Edge {
  TaskId from = 0;          ///< Producer task T_k.
  TaskId to = 0;            ///< Consumer task T_l.
  double data_bytes = 0.0;  ///< Bytes produced per instance.
};

/// Directed acyclic task graph of a streaming application.
///
/// Tasks and edges are referred to by dense indices (TaskId / EdgeId)
/// assigned in insertion order.  The graph is append-only; add_task and
/// add_edge keep the adjacency lists current, so every query on a const
/// graph only reads it.
class TaskGraph {
 public:
  TaskGraph() = default;
  explicit TaskGraph(std::string name) : name_(std::move(name)) {}

  /// Append a task; returns its id.
  TaskId add_task(Task task);

  /// Append a dependency edge; both endpoints must exist, self-loops and
  /// duplicate (from, to) pairs are rejected.  Returns the edge id.
  EdgeId add_edge(TaskId from, TaskId to, double data_bytes);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  const Task& task(TaskId id) const {
    CS_ENSURE(id < tasks_.size(), "task: id out of range");
    return tasks_[id];
  }
  Task& task(TaskId id) {
    CS_ENSURE(id < tasks_.size(), "task: id out of range");
    return tasks_[id];
  }
  const Edge& edge(EdgeId id) const {
    CS_ENSURE(id < edges_.size(), "edge: id out of range");
    return edges_[id];
  }

  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Edge ids leaving / entering a task, ascending.
  const std::vector<EdgeId>& out_edges(TaskId id) const {
    CS_ENSURE(id < tasks_.size(), "out_edges: id out of range");
    return out_edges_[id];
  }
  const std::vector<EdgeId>& in_edges(TaskId id) const {
    CS_ENSURE(id < tasks_.size(), "in_edges: id out of range");
    return in_edges_[id];
  }

  /// Tasks with no predecessors / successors.
  std::vector<TaskId> sources() const;
  std::vector<TaskId> sinks() const;

  /// One topological order of all tasks; throws if the graph has a cycle.
  std::vector<TaskId> topological_order() const;

  /// True iff the graph is acyclic (add_edge does not check, so generators
  /// building from random wiring validate once at the end).
  bool is_acyclic() const;

  /// Throws Error describing the first problem found (cycle, negative
  /// cost, negative data size, ...).  A valid graph has is_acyclic() true
  /// and all numeric attributes non-negative.
  void validate() const;

  /// Longest path length in edges (depth of the DAG); 0 for a single task.
  std::size_t depth() const;

  // -- Aggregate measures -------------------------------------------------

  /// Sum over tasks of wppe / wspe (seconds of work per stream instance).
  double total_wppe() const;
  double total_wspe() const;

  /// Total bytes moved per instance: all edge data plus memory reads and
  /// writes of every task.
  double total_data_bytes() const;

  /// Communication-to-computation ratio (paper Section 6.2): total bytes
  /// transferred per instance divided by total computation work, where
  /// work is measured as SPE-seconds scaled by `ops_per_second` so the
  /// ratio is the paper's elements-per-operation.  With the default scale
  /// of 1, this is bytes per SPE-second.
  double ccr(double ops_per_second = 1.0) const;

  /// Uniformly scale all edge data sizes and memory reads/writes so that
  /// ccr(ops_per_second) == target.  Computation costs are untouched.
  void scale_to_ccr(double target, double ops_per_second = 1.0);

  // -- Serialization ------------------------------------------------------

  /// Plain-text serialization (stable, line-oriented; see task_graph.cpp
  /// for the grammar).  Round-trips exactly.
  std::string to_text() const;
  static TaskGraph from_text(const std::string& text);

  /// Graphviz DOT rendering in the style of the paper's Fig. 5.
  std::string to_dot() const;

 private:
  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;

  // Adjacency, kept current by add_task and add_edge.
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
};

}  // namespace cellstream
