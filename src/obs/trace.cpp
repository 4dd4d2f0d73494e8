#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace cellstream::obs {

namespace {

// Full JSON string escape: quotes, backslashes and *every* control
// character (task names come from user graph files and from fuzzers —
// a raw 0x01 or an embedded quote used to produce an unloadable trace).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string task_label(const TaskGraph& graph, std::int32_t task) {
  if (task >= 0 && static_cast<std::size_t>(task) < graph.task_count()) {
    return graph.task(static_cast<TaskId>(task)).name;
  }
  return "task " + std::to_string(task);
}

}  // namespace

void ensure_traceable(const TaskGraph& graph, const CellPlatform& platform,
                      const char* who) {
  constexpr auto kMaxId =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  CS_ENSURE(platform.pe_count() <=
                std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1,
            std::string(who) + ": a trace holds at most 65536 PEs");
  CS_ENSURE(graph.task_count() <= kMaxId && graph.edge_count() <= kMaxId,
            std::string(who) + ": a trace holds at most 2^31 - 1 tasks and "
            "edges");
}

std::string edge_label(const TaskGraph& graph, EdgeId e) {
  const Edge& edge = graph.edge(e);
  return graph.task(edge.from).name + "->" + graph.task(edge.to).name;
}

std::string event_label(const TaskGraph& graph, const TraceEvent& event) {
  switch (event.payload) {
    case TraceEvent::Payload::kEdge:
      if (event.edge >= 0 &&
          static_cast<std::size_t>(event.edge) < graph.edge_count()) {
        return edge_label(graph, static_cast<EdgeId>(event.edge));
      }
      return "edge " + std::to_string(event.edge);
    case TraceEvent::Payload::kMemRead:
      return "read:" + task_label(graph, event.task);
    case TraceEvent::Payload::kMemWrite:
      return "write:" + task_label(graph, event.task);
    case TraceEvent::Payload::kNone:
      break;
  }
  return task_label(graph, event.task);
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events,
                        const TaskGraph& graph, const CellPlatform& platform) {
  out << "[\n";
  // Thread-name metadata: one lane per PE for compute, one for transfers.
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) out << ",\n";
    first = false;
    out << "  " << line;
  };
  for (PeId pe = 0; pe < platform.pe_count(); ++pe) {
    emit("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(pe) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(platform.pe_name(pe)) + "\"}}");
    emit("{\"ph\":\"M\",\"pid\":0,\"tid\":" +
         std::to_string(platform.pe_count() + pe) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(platform.pe_name(pe)) + " transfers\"}}");
  }
  for (const TraceEvent& e : events) {
    // Defensive window handling: a non-finite timestamp would render as
    // "nan"/"inf" (not JSON), so the event is dropped; a negative
    // duration (end < start) is clamped to a zero-length marker at the
    // start time.  Either way the file stays loadable.
    if (!std::isfinite(e.start) || !std::isfinite(e.end)) continue;
    const double duration = e.end >= e.start ? e.end - e.start : 0.0;
    const std::size_t lane =
        e.kind == TraceEvent::Kind::kCompute ? e.pe
                                             : platform.pe_count() + e.pe;
    std::ostringstream line;
    line << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << lane << ",\"name\":\""
         << json_escape(event_label(graph, e)) << "\",\"ts\":" << e.start * 1e6
         << ",\"dur\":" << duration * 1e6
         << ",\"cat\":\""
         << (e.kind == TraceEvent::Kind::kCompute ? "compute" : "transfer")
         << "\"";
    if (e.instance >= 0) {
      line << ",\"args\":{\"instance\":" << e.instance << "}";
    }
    line << "}";
    emit(line.str());
  }
  out << "\n]\n";
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const TaskGraph& graph,
                              const CellPlatform& platform) {
  std::ostringstream os;
  write_chrome_trace(os, events, graph, platform);
  return os.str();
}

}  // namespace cellstream::obs
