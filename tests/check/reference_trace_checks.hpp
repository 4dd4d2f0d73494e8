#pragma once
// Test-local reference: the trace-replay checkers I4-I6 as they were
// before check_trace replaced them — three walks of the trace, the
// instance index built twice (once by check_buffer_occupancy, once by
// check_causality), so every trace-consistency defect is reported twice,
// and a missing instance replayed as a zero window.  It is kept only to
// check check_trace against (tests/check/trace_reference_test.cpp) on
// traces without instance gaps; nothing in src/ uses it.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "support/strings.hpp"

namespace cellstream::reference {

using obs::TraceEvent;

inline std::string time_str(double seconds) {
  std::ostringstream os;
  os.precision(9);
  os << seconds << "s";
  return os.str();
}

inline void add(std::vector<check::Violation>& out, std::string invariant,
                std::string detail) {
  out.push_back({std::move(invariant), std::move(detail)});
}

/// The label the simulator stored in every event while events carried one
/// (a task name, "from->to", "read:" / "write:" plus a task name), with
/// obs::event_label's "task <id>" / "edge <id>" for ids outside the graph.
inline std::string label(const TaskGraph& graph, const TraceEvent& e) {
  const auto task = [&graph](std::int64_t t) {
    return t >= 0 && static_cast<std::size_t>(t) < graph.task_count()
               ? graph.task(static_cast<TaskId>(t)).name
               : "task " + std::to_string(t);
  };
  switch (e.payload) {
    case TraceEvent::Payload::kEdge: {
      if (e.edge < 0 ||
          static_cast<std::size_t>(e.edge) >= graph.edge_count()) {
        return "edge " + std::to_string(e.edge);
      }
      const Edge& edge = graph.edge(static_cast<EdgeId>(e.edge));
      return graph.task(edge.from).name + "->" + graph.task(edge.to).name;
    }
    case TraceEvent::Payload::kMemRead:
      return "read:" + task(e.task);
    case TraceEvent::Payload::kMemWrite:
      return "write:" + task(e.task);
    case TraceEvent::Payload::kNone:
      break;
  }
  return task(e.task);
}

/// Per-task compute events and per-edge fetch events, indexed by instance.
/// Built by check_buffer_occupancy and again by check_causality, each copy
/// returning its own defects.  Events are placed
/// by their instance number — under fault injection a stalled DMA retry
/// legitimately lets instance i+1's fetch complete before instance i's, so
/// arrival order proves nothing — and each sequence is then verified to be
/// a gap-free, duplicate-free 0..L-1 (a checker working from a corrupted
/// trace would otherwise prove nothing).
struct TraceIndex {
  struct Window {
    double start = 0.0;
    double end = 0.0;
  };
  // computes[t][i] / fetches[e][i]: event window of instance i.
  std::vector<std::vector<Window>> computes;
  std::vector<std::vector<Window>> fetches;
  std::vector<check::Violation> defects;

  TraceIndex(const TaskGraph& graph, const std::vector<TraceEvent>& trace) {
    computes.resize(graph.task_count());
    fetches.resize(graph.edge_count());
    std::vector<std::vector<char>> compute_seen(graph.task_count());
    std::vector<std::vector<char>> fetch_seen(graph.edge_count());
    for (const TraceEvent& e : trace) {
      if (e.end < e.start) {
        add(defects, "trace-consistency",
            "event '" + label(graph, e) + "' ends before it starts");
        continue;
      }
      if (e.kind == TraceEvent::Kind::kCompute) {
        if (e.task < 0 ||
            static_cast<std::size_t>(e.task) >= graph.task_count()) {
          add(defects, "trace-consistency",
              "compute event '" + label(graph, e) + "' has no valid task id");
          continue;
        }
        const auto t = static_cast<std::size_t>(e.task);
        place(graph, computes[t], compute_seen[t], e, "compute");
      } else if (e.payload == TraceEvent::Payload::kEdge) {
        if (e.edge < 0 ||
            static_cast<std::size_t>(e.edge) >= graph.edge_count()) {
          add(defects, "trace-consistency",
              "edge transfer '" + label(graph, e) + "' has no valid edge id");
          continue;
        }
        const auto edge = static_cast<std::size_t>(e.edge);
        place(graph, fetches[edge], fetch_seen[edge], e, "fetch");
      }
    }
    for (TaskId t = 0; t < graph.task_count(); ++t) {
      report_gaps(compute_seen[t], "compute of task '" + graph.task(t).name);
    }
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      const Edge& edge = graph.edge(e);
      report_gaps(fetch_seen[e], "fetch of edge '" +
                                     graph.task(edge.from).name + "->" +
                                     graph.task(edge.to).name);
    }
  }

  /// Number of stream instances witnessed by the trace.
  std::int64_t stream_length() const {
    std::size_t len = 0;
    for (const auto& seq : computes) len = std::max(len, seq.size());
    return static_cast<std::int64_t>(len);
  }

 private:
  void place(const TaskGraph& graph, std::vector<Window>& seq,
             std::vector<char>& seen, const TraceEvent& e, const char* what) {
    if (e.instance < 0) {
      add(defects, "trace-consistency",
          std::string(what) + " '" + label(graph, e) +
              "' has no instance number");
      return;
    }
    const auto i = static_cast<std::size_t>(e.instance);
    if (i >= seq.size()) {
      seq.resize(i + 1);
      seen.resize(i + 1, 0);
    }
    if (seen[i]) {
      add(defects, "trace-consistency",
          std::string(what) + " '" + label(graph, e) +
              "' completes instance " + std::to_string(e.instance) +
              " twice (duplicated work)");
      return;
    }
    seen[i] = 1;
    seq[i] = {e.start, e.end};
  }

  void report_gaps(const std::vector<char>& seen, const std::string& what) {
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (!seen[i]) {
        add(defects, "trace-consistency",
            what + "': instance " + std::to_string(i) +
                " is missing from the trace (later instances are present)");
        return;  // one report per sequence keeps cascades readable
      }
    }
  }
};

inline std::vector<check::Violation> check_dma_queue_limits(
    const CellPlatform& platform, const std::vector<obs::TraceEvent>& trace) {
  std::vector<check::Violation> out;
  // Sweep-line deltas per queue: +1 when a DMA is issued, -1 when it
  // completes.  At equal times completions are applied first — that is the
  // semantics the simulator guarantees (a slot freed at time t may be
  // reused by a command issued at t).
  struct Delta {
    double time;
    int change;
    bool operator<(const Delta& other) const {
      if (time != other.time) return time < other.time;
      return change < other.change;
    }
  };
  std::vector<std::vector<Delta>> spe_queue(platform.pe_count());
  std::vector<std::vector<Delta>> proxy_queue(platform.pe_count());
  for (const TraceEvent& e : trace) {
    if (e.kind != TraceEvent::Kind::kTransfer) continue;
    // Every transfer occupies one slot of its issuer's MFC stack while in
    // flight — when the issuer is a SPE (constraint 1j's runtime analogue).
    if (platform.is_spe(e.pe)) {
      spe_queue[e.pe].push_back({e.start, +1});
      spe_queue[e.pe].push_back({e.end, -1});
    } else if (e.payload == TraceEvent::Payload::kEdge &&
               platform.is_spe(e.src_pe)) {
      // PPE-issued fetch from a SPE local store: occupies the source SPE's
      // 8-deep proxy stack (constraint 1k's runtime analogue).
      proxy_queue[e.src_pe].push_back({e.start, +1});
      proxy_queue[e.src_pe].push_back({e.end, -1});
    }
  }
  const auto sweep = [&](std::vector<Delta>& deltas, std::size_t limit,
                         const std::string& what) {
    std::sort(deltas.begin(), deltas.end());
    std::int64_t depth = 0;
    std::int64_t peak = 0;
    double peak_time = 0.0;
    for (const Delta& d : deltas) {
      depth += d.change;
      if (depth > peak) {
        peak = depth;
        peak_time = d.time;
      }
    }
    if (peak > static_cast<std::int64_t>(limit)) {
      add(out, "dma-queue",
          what + " reaches " + std::to_string(peak) +
              " outstanding DMAs at " + time_str(peak_time) + ", over the " +
              std::to_string(limit) + "-slot hardware queue");
    }
  };
  for (PeId pe = 0; pe < platform.pe_count(); ++pe) {
    if (!platform.is_spe(pe)) continue;
    sweep(spe_queue[pe], platform.spe_dma_slots,
          platform.pe_name(pe) + " MFC queue");
    sweep(proxy_queue[pe], platform.ppe_to_spe_dma_slots,
          platform.pe_name(pe) + " proxy queue");
  }
  return out;
}

inline std::vector<check::Violation> check_buffer_occupancy(
    const SteadyStateAnalysis& analysis, const Mapping& mapping,
    const std::vector<obs::TraceEvent>& trace) {
  const TaskGraph& graph = analysis.graph();
  TraceIndex index(graph, trace);
  std::vector<check::Violation> out = std::move(index.defects);

  // Replay each edge's produce / fetch / consume counter timeline.  At
  // equal times the slot-freeing transition is applied first (consume,
  // then fetch, then produce), matching the simulator's guarantee.
  enum : int { kConsume = 0, kFetch = 1, kProduce = 2 };
  struct Step {
    double time;
    int type;
    bool operator<(const Step& other) const {
      if (time != other.time) return time < other.time;
      return type < other.type;
    }
  };
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    const bool remote = mapping.pe_of(edge.from) != mapping.pe_of(edge.to);
    const std::int64_t depth = analysis.buffer_depth(e);
    std::vector<Step> steps;
    for (const auto& w : index.computes[edge.from]) {
      steps.push_back({w.end, kProduce});
    }
    for (const auto& w : index.computes[edge.to]) {
      steps.push_back({w.end, kConsume});
    }
    for (const auto& w : index.fetches[e]) steps.push_back({w.end, kFetch});
    std::sort(steps.begin(), steps.end());

    const std::string label = graph.task(edge.from).name + "->" +
                              graph.task(edge.to).name;
    std::int64_t produced = 0, fetched = 0, consumed = 0;
    bool over_reported = false, order_reported = false;
    for (const Step& s : steps) {
      switch (s.type) {
        case kProduce: ++produced; break;
        case kFetch: ++fetched; break;
        case kConsume: ++consumed; break;
      }
      if (!order_reported &&
          (fetched > produced || consumed > (remote ? fetched : produced))) {
        order_reported = true;
        add(out, "buffer-occupancy",
            "edge " + label + ": counters out of order at " +
                time_str(s.time) + " (produced " + std::to_string(produced) +
                ", fetched " + std::to_string(fetched) + ", consumed " +
                std::to_string(consumed) + ")");
      }
      const std::int64_t producer_side =
          produced - (remote ? fetched : consumed);
      const std::int64_t consumer_side = remote ? fetched - consumed : 0;
      const std::int64_t occupancy = std::max(producer_side, consumer_side);
      if (!over_reported && occupancy > depth) {
        over_reported = true;
        add(out, "buffer-occupancy",
            "edge " + label + " holds " + std::to_string(occupancy) +
                " instances (" +
                format_bytes(static_cast<double>(occupancy) *
                             edge.data_bytes) +
                ") at " + time_str(s.time) + ", over buff = " +
                std::to_string(depth) + " instances (" +
                format_bytes(analysis.buffer_bytes(e)) + ")");
      }
    }
  }
  return out;
}

inline std::vector<check::Violation> check_causality(
    const SteadyStateAnalysis& analysis, const Mapping& mapping,
    const std::vector<TraceEvent>& trace) {
  const TaskGraph& graph = analysis.graph();
  // The oracle's I6 slack, restated here so the reference reads nothing
  // of src/check/invariants.cpp.
  const double eps = 1e-12;
  TraceIndex index(graph, trace);
  std::vector<check::Violation> out = std::move(index.defects);
  const std::int64_t length = index.stream_length();

  // availability[...] (i): earliest time by which instances 0..i are all
  // available — a running max of completion times, since completions of
  // one sequence need not be monotone in time across instances.
  const auto prefix_max_ends = [](const std::vector<TraceIndex::Window>& seq) {
    std::vector<double> out_times(seq.size());
    double running = 0.0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      running = std::max(running, seq[i].end);
      out_times[i] = running;
    }
    return out_times;
  };
  std::vector<std::vector<double>> produced_by(graph.task_count());
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    produced_by[t] = prefix_max_ends(index.computes[t]);
  }
  std::vector<std::vector<double>> fetched_by(graph.edge_count());
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    fetched_by[e] = prefix_max_ends(index.fetches[e]);
  }

  // A remote fetch of instance i must start after its production.
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    const std::string label =
        graph.task(edge.from).name + "->" + graph.task(edge.to).name;
    for (std::size_t i = 0; i < index.fetches[e].size(); ++i) {
      if (i >= index.computes[edge.from].size()) {
        add(out, "causality",
            "edge " + label + ": instance " + std::to_string(i) +
                " was fetched but its production is not in the trace");
        break;
      }
      if (index.fetches[e][i].start + eps < index.computes[edge.from][i].end) {
        add(out, "causality",
            "edge " + label + ": fetch of instance " + std::to_string(i) +
                " starts at " + time_str(index.fetches[e][i].start) +
                ", before the producer finished at " +
                time_str(index.computes[edge.from][i].end));
      }
    }
  }

  // A compute of instance i needs instances 0..min(i + peek, L-1) of every
  // input available (produced locally, or fetched when the edge is remote).
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    const int peek = graph.task(t).peek;
    for (std::size_t i = 0; i < index.computes[t].size(); ++i) {
      const double start = index.computes[t][i].start;
      const std::int64_t need =
          std::min<std::int64_t>(static_cast<std::int64_t>(i) + peek,
                                 length - 1);
      for (EdgeId e : graph.in_edges(t)) {
        const Edge& edge = graph.edge(e);
        const bool remote = mapping.pe_of(edge.from) != mapping.pe_of(edge.to);
        const std::vector<double>& avail =
            remote ? fetched_by[e] : produced_by[edge.from];
        const std::string label =
            graph.task(edge.from).name + "->" + graph.task(t).name;
        if (static_cast<std::int64_t>(avail.size()) <= need) {
          add(out, "causality",
              "task " + graph.task(t).name + " ran instance " +
                  std::to_string(i) + " but input " + label +
                  " only delivered " + std::to_string(avail.size()) +
                  " instances in the trace (needs " +
                  std::to_string(need + 1) + " with peek " +
                  std::to_string(peek) + ")");
          continue;
        }
        if (avail[static_cast<std::size_t>(need)] > start + eps) {
          add(out, "causality",
              "task " + graph.task(t).name + " started instance " +
                  std::to_string(i) + " at " + time_str(start) +
                  " before input " + label + " delivered instance " +
                  std::to_string(need) + " at " +
                  time_str(avail[static_cast<std::size_t>(need)]));
        }
      }
    }
  }

  // Processing elements are serial: compute windows on one PE must not
  // overlap (the trace window excludes dispatch overhead, so any overlap
  // is a genuine double-booking).
  std::vector<std::vector<TraceIndex::Window>> per_pe(
      analysis.platform().pe_count());
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    for (const auto& w : index.computes[t]) {
      per_pe[mapping.pe_of(t)].push_back(w);
    }
  }
  for (PeId pe = 0; pe < per_pe.size(); ++pe) {
    auto& windows = per_pe[pe];
    std::sort(windows.begin(), windows.end(),
              [](const auto& a, const auto& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < windows.size(); ++i) {
      if (windows[i].start + eps < windows[i - 1].end) {
        add(out, "causality",
            analysis.platform().pe_name(pe) +
                " executes two task instances concurrently (" +
                time_str(windows[i].start) + " < " +
                time_str(windows[i - 1].end) + ")");
        break;
      }
    }
  }
  return out;
}

}  // namespace cellstream::reference
