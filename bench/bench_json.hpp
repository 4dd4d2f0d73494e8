#pragma once
// --json support for the bench binaries.
//
// Each binary can append one machine-readable section to a shared
// document (BENCH_sim.json by default; micro_runtime writes
// BENCH_runtime.json), so running the binaries in any order accumulates a
// single file with one top-level key per bench.
// docs/PERFORMANCE.md documents the schema; the bench-smoke ctests run
// micro_sim --json and micro_runtime --json at a reduced scale and
// schema-check the output.

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/json.hpp"

namespace cellstream::bench {

/// Path following a `--json` flag, `fallback` when the flag is bare, or ""
/// when the flag is absent (text-only mode).
inline std::string json_output_path(int argc, char** argv,
                                    const char* fallback = "BENCH_sim.json") {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--json") continue;
    if (i + 1 < argc && argv[i + 1][0] != '-') return argv[i + 1];
    return fallback;
  }
  return "";
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Read-modify-write one top-level section of the shared bench document.
/// A missing file is created; an unreadable or malformed one is replaced
/// (a half-written document must not wedge every later bench run).
inline void update_bench_json(const std::string& path,
                              const std::string& section, json::Value value) {
  json::Value doc = json::Value::object();
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      try {
        json::Value parsed = json::Value::parse(text.str());
        if (parsed.is_object()) doc = std::move(parsed);
      } catch (const Error&) {
        // malformed previous contents: start the document over
      }
    }
  }
  doc.set(section, std::move(value));
  std::ofstream out(path, std::ios::trunc);
  CS_ENSURE(bool(out), "bench: cannot open " + path + " for writing");
  out << doc.dump(2) << "\n";
  CS_ENSURE(bool(out), "bench: failed writing " + path);
}

/// Schema check used by the writer itself right after the write: re-read
/// the document and require `section` to exist with every key in
/// `required`.  Throws on any miss, so a bench that emitted a malformed
/// or incomplete section fails loudly (the bench-smoke test relies on
/// the nonzero exit).
inline void check_bench_json(const std::string& path,
                             const std::string& section,
                             const std::vector<std::string>& required) {
  std::ifstream in(path);
  CS_ENSURE(bool(in), "bench: cannot re-read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value doc = json::Value::parse(text.str());
  CS_ENSURE(doc.has(section), "bench: " + path + " lacks section " + section);
  const json::Value& sec = doc.at(section);
  for (const std::string& key : required) {
    CS_ENSURE(sec.has(key),
              "bench: section " + section + " lacks key " + key);
  }
}

}  // namespace cellstream::bench
