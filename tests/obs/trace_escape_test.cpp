// Regression tests for the hardened chrome-trace writer: hostile task
// names in the graph (quotes, backslashes, control characters), from which
// the writer labels every event, must yield a parseable JSON document, and
// corrupt event windows (NaN/Inf timestamps, negative durations) must not
// poison the file.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace cellstream::obs {
namespace {

/// A graph of one task per name; an event labels itself through its task.
TaskGraph named_tasks(const std::vector<std::string>& names) {
  TaskGraph graph("names");
  for (const std::string& name : names) {
    graph.add_task({name, 1e-3, 1e-3, 0, 0.0, 0.0, false});
  }
  return graph;
}

TraceEvent compute_event(TaskId task, double start, double end) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kCompute;
  e.pe = 0;
  e.src_pe = 0;
  e.start = start;
  e.end = end;
  e.instance = 0;
  e.task = static_cast<std::int32_t>(task);
  return e;
}

TEST(TraceEscape, HostileNamesStillProduceValidJson) {
  // Every class the escaper must handle: quote, backslash, the named
  // control escapes, an arbitrary control byte, and multi-byte UTF-8.
  const std::string hostile =
      "ta\"sk\\one\nwith\ttabs\rand\x01ctrl\x1f \xE2\x82\xAC";
  const std::vector<TraceEvent> events = {
      compute_event(0, 0.0, 1.0e-3),
  };
  const std::string text = chrome_trace_json(
      events, named_tasks({hostile}), platforms::qs22_single_cell());

  const json::Value doc = json::Value::parse(text);
  ASSERT_TRUE(doc.is_array());
  // Find the duration event (after the thread_name metadata) and check
  // the name round-tripped through escaping unchanged.
  bool found = false;
  for (const json::Value& item : doc.items()) {
    if (item.at("ph").as_string() != "X") continue;
    EXPECT_EQ(item.at("name").as_string(), hostile);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TraceEscape, NonFiniteWindowsAreSkipped) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<TraceEvent> events = {
      compute_event(0, nan, 1.0),
      compute_event(1, 0.0, inf),
      compute_event(2, 0.0, 1.0e-3),
  };
  const std::string text =
      chrome_trace_json(events, named_tasks({"bad-start", "bad-end", "good"}),
                        platforms::qs22_single_cell());
  const json::Value doc = json::Value::parse(text);
  std::size_t durations = 0;
  for (const json::Value& item : doc.items()) {
    if (item.at("ph").as_string() != "X") continue;
    ++durations;
    EXPECT_EQ(item.at("name").as_string(), "good");
  }
  EXPECT_EQ(durations, 1u);
}

TEST(TraceEscape, NegativeDurationsClampToZeroLength) {
  const std::vector<TraceEvent> events = {
      compute_event(0, 2.0e-3, 1.0e-3),
  };
  const std::string text = chrome_trace_json(
      events, named_tasks({"backwards"}), platforms::qs22_single_cell());
  const json::Value doc = json::Value::parse(text);
  bool found = false;
  for (const json::Value& item : doc.items()) {
    if (item.at("ph").as_string() != "X") continue;
    found = true;
    EXPECT_DOUBLE_EQ(item.at("ts").as_number(), 2.0e-3 * 1e6);
    EXPECT_DOUBLE_EQ(item.at("dur").as_number(), 0.0);
  }
  EXPECT_TRUE(found);
}

TEST(TraceEscape, PlatformPeNamesAreEscapedInMetadata) {
  // The writer escapes pe_name() output too; the stock platforms have
  // benign names, so this documents the whole file parses regardless.
  const std::string text =
      chrome_trace_json({}, named_tasks({}), platforms::playstation3());
  const json::Value doc = json::Value::parse(text);
  for (const json::Value& item : doc.items()) {
    EXPECT_EQ(item.at("ph").as_string(), "M");
  }
  EXPECT_GT(doc.size(), 0u);
}

}  // namespace
}  // namespace cellstream::obs
