#pragma once
// Execution trace events shared by the simulator and the host runtime,
// plus the chrome://tracing exporter.
//
// Both execution engines emit this one event type and one writer serves
// both.
// A simulated run stamps events in simulated seconds, a host-runtime run
// in wall seconds since the run started; the Trace Event Format does not
// care — open either in chrome://tracing or Perfetto (one row per
// processing element with its task executions, plus one row per PE for
// the transfers it received; see docs/OBSERVABILITY.md).
//
// An event carries ids only, no label: a traced 5,000-instance run holds
// hundreds of thousands of events, and the label is a pure function of
// the ids and the task graph (event_label), built only where a person
// reads it — the Chrome exporter and the oracle's defect messages.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/task_graph.hpp"
#include "platform/cell.hpp"

namespace cellstream::obs {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kCompute,   ///< A task instance executing on a PE.
    kTransfer,  ///< A DMA transfer (edge fetch / memory read / write).
  };
  /// What a kTransfer event moves (kNone for kCompute events).
  enum class Payload : std::uint8_t {
    kNone,      ///< Not a transfer.
    kEdge,      ///< Remote-edge fetch (receiver reads the producer's buffer).
    kMemRead,   ///< Main-memory stream read of a task.
    kMemWrite,  ///< Main-memory stream write of a task.
  };
  Kind kind = Kind::kCompute;
  Payload payload = Payload::kNone;
  /// Executing PE (kCompute), or the PE whose communication phase issued
  /// the DMA (kTransfer) — the receiver for kEdge/kMemRead, the writer for
  /// kMemWrite.  The [start, end] window of a transfer is exactly the time
  /// the command occupies a DMA queue slot of its issuer (SPE MFC stack)
  /// or, for PPE-issued edge fetches, of the source SPE's proxy stack.
  std::uint16_t pe = 0;
  std::uint16_t src_pe = 0;  ///< Producer-side PE of a kEdge transfer; == pe
                             ///< for every other event kind.
  std::int32_t task = -1;    ///< TaskId for kCompute / kMemRead / kMemWrite.
  std::int32_t edge = -1;    ///< EdgeId for Payload::kEdge.
  double start = 0.0;        ///< Seconds (simulated or wall-since-run-start).
  double end = 0.0;
  std::int64_t instance = -1;  ///< Stream instance, when known.
};
static_assert(sizeof(TraceEvent) <= 40, "a trace event is five words");

/// Throws unless every PE, task and edge id of `graph` on `platform` fits
/// the narrow id fields of TraceEvent.  `who` prefixes the message.
void ensure_traceable(const TaskGraph& graph, const CellPlatform& platform,
                      const char* who);

/// "producer->consumer": the label of edge `e` of `graph`.
std::string edge_label(const TaskGraph& graph, EdgeId e);

/// The human-readable label of `event`: the task name of a compute,
/// "producer->consumer" of an edge fetch, "read:" / "write:" plus the task
/// name of a main-memory transfer.  An id outside `graph` reads "task <id>"
/// or "edge <id>", so a corrupted trace still labels every event.
std::string event_label(const TaskGraph& graph, const TraceEvent& event);

/// Serialize events to the Trace Event Format (JSON array).  `graph`
/// supplies the event names (event_label), `platform` the thread names
/// ("PPE0", "SPE3 transfers", ...).
///
/// The writer is defensive about its input so a corrupted trace still
/// yields a loadable file: names are fully JSON-escaped (quotes,
/// backslashes, all control characters), events with a non-finite start
/// or end are skipped, and negative-duration windows are clamped to
/// zero-length at their start time.
void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events,
                        const TaskGraph& graph, const CellPlatform& platform);

/// Convenience: the JSON as a string.
std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const TaskGraph& graph,
                              const CellPlatform& platform);

}  // namespace cellstream::obs
