#pragma once
// JSON / CSV serialization of the telemetry report (obs::Report).
//
// `cellstream_cli stats` and the tests speak these formats; the JSON
// document carries a schema tag and validate_stats_json checks a parsed
// document against that schema, so a consumer can fail fast on version or
// shape drift instead of reading garbage fields.  Writers emit
// "cellstream-stats-v2", which adds the `faults` section (fault-injection
// and failover counters, null for runs without a fault plan); the
// validator also accepts "cellstream-stats-v1" documents, where `faults`
// does not exist.  The solver section's `mapping_candidates`,
// `mapping_evaluations`, `polish_seconds` and `proxy_cuts` are optional
// in both versions.  The
// CSV export is the per-resource occupation table only (one row per PE
// interface direction / compute resource) — handy for spreadsheets and
// plotting, while JSON is the complete document.

#include <string>
#include <vector>

#include "obs/report.hpp"
#include "support/json.hpp"

namespace cellstream::report {

/// Schema tag stamped into every stats document this writer produces.
inline constexpr const char* kStatsSchema = "cellstream-stats-v2";
/// Previous tag, still accepted by validate_stats_json (documents written
/// before the `faults` section existed).
inline constexpr const char* kStatsSchemaV1 = "cellstream-stats-v1";

/// Build the full JSON document for one run report.
json::Value stats_to_json(const obs::Report& report);

/// stats_to_json rendered pretty (2-space indent, trailing newline).
std::string stats_json(const obs::Report& report);

/// Per-resource occupation table as CSV:
/// resource,pe,kind,predicted_seconds,observed_seconds,ratio
std::string stats_csv(const obs::Report& report);

/// Check a parsed stats document against its schema (v2 or the legacy
/// v1): tag, required sections, field types, and internal consistency
/// (crosscheck.ok must match crosscheck.flagged; a v1 document must not
/// carry a `faults` section, a v2 document must — null for fault-free
/// runs).  Returns the problems found; an empty vector means the document
/// validates.
std::vector<std::string> validate_stats_json(const json::Value& document);

}  // namespace cellstream::report
