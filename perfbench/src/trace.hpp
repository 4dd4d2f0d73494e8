#pragma once
// In-memory spans recorded by the benchmark around its calls into the
// cellstream modules (gen, core, mapping, lp, milp, sim, check, fault,
// runtime).  Nothing inside the library is instrumented: a span covers one
// call from outside, so its time is the module's time as a caller sees it.
//
// Spans of one operation share an operation id and name their parent span.
// They stay in memory and are written out when the run ends, together
// with each layer's count, total and self seconds.  Self time is a span's
// duration minus the time its child spans cover.  A disabled tracer reads
// no clock and records nothing.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

/// Seconds on the steady clock.
double now_s();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: no parent.
  std::uint64_t op = 0;      ///< Operation the span belongs to (0: none).
  std::string layer;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  double child_s = 0.0;  ///< Time covered by direct children.
};

struct LayerSummary {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Start a new operation; spans opened until the next call share its id.
  void begin_op();

  /// Closes its span when it goes out of scope.  Spans nest strictly: the
  /// benchmark calls the modules from one thread.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;  ///< Null when tracing is off.
    std::size_t index_;
  };

  [[nodiscard]] Scope span(const char* layer, std::string name);

  const std::vector<Span>& spans() const { return spans_; }
  /// Count, total and self seconds per layer.
  std::map<std::string, LayerSummary> summary() const;
  /// Total seconds of the spans of `layer`, or only those named `name`.
  double seconds(const std::string& layer, const std::string& name = "") const;
  /// Spans plus per-layer summary as one JSON object.
  cellstream::json::Value to_json() const;

 private:
  void close(std::size_t index);

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< Indices of the open spans, innermost last.
};

}  // namespace perfbench
