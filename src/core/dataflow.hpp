#pragma once
// The dataflow readiness arithmetic shared by both executors
// (sim::Simulator in simulated time, runtime::run_stream on host threads).
//
// An instance of a task may start once every input edge has delivered its
// peek window and every output buffer has a free slot.  Each executor keeps
// its own counters (the simulator distinguishes produced from fetched
// packets on remote edges; the host runtime has one ring per edge), but the
// two comparisons below are the same model in both, so they live here once.

#include <algorithm>
#include <cstdint>

namespace cellstream::dataflow {

/// Packets an input edge must hold before instance `instance` of a task
/// with look-ahead `peek` can run: instances instance .. instance + peek,
/// clamped at the end of a stream of `stream_length` instances.
constexpr std::int64_t inputs_needed(std::int64_t instance, int peek,
                                     std::int64_t stream_length) {
  return std::min<std::int64_t>(instance + peek + 1, stream_length);
}

/// True when a buffer of `depth` slots that has received `produced`
/// packets, of which `freed` have been released, can take one more.
constexpr bool has_free_slot(std::int64_t produced, std::int64_t freed,
                             std::int64_t depth) {
  return produced - freed < depth;
}

}  // namespace cellstream::dataflow
