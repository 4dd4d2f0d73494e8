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

#include <iosfwd>
#include <string>
#include <vector>

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
  std::string name;       ///< Task name or transfer label.
  /// Executing PE (kCompute), or the PE whose communication phase issued
  /// the DMA (kTransfer) — the receiver for kEdge/kMemRead, the writer for
  /// kMemWrite.  The [start, end] window of a transfer is exactly the time
  /// the command occupies a DMA queue slot of its issuer (SPE MFC stack)
  /// or, for PPE-issued edge fetches, of the source SPE's proxy stack.
  PeId pe = 0;
  PeId src_pe = 0;        ///< Producer-side PE of a kEdge transfer; == pe
                          ///< for every other event kind.
  double start = 0.0;     ///< Seconds (simulated or wall-since-run-start).
  double end = 0.0;
  std::int64_t instance = -1;  ///< Stream instance, when known.
  std::int64_t edge = -1;      ///< EdgeId for Payload::kEdge.
  std::int64_t task = -1;      ///< TaskId for kCompute / kMemRead / kMemWrite.
};

/// Serialize events to the Trace Event Format (JSON array).  `platform`
/// supplies the thread names ("PPE0", "SPE3 transfers", ...).
///
/// The writer is defensive about its input so a corrupted trace still
/// yields a loadable file: names are fully JSON-escaped (quotes,
/// backslashes, all control characters), events with a non-finite start
/// or end are skipped, and negative-duration windows are clamped to
/// zero-length at their start time.
void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events,
                        const CellPlatform& platform);

/// Convenience: the JSON as a string.
std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const CellPlatform& platform);

}  // namespace cellstream::obs
