#pragma once
// Instance completion for the host runtime, without a scan of every task.
//
// Each sink commits in stream order and every task reaches a sink, so every
// instance below the smallest sink count is complete: that minimum is the
// completion frontier.  The sink worker whose compare-exchange moves the
// frontier stamps the instances it moved it past, so each instance is
// stamped exactly once.  Every atomic access is seq_cst: the host runtime's
// sleep recheck reads the frontier in the same total order as its other
// data (host_runtime.cpp, Runtime::sleep).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cellstream::runtime {

class CompletionFrontier {
 public:
  CompletionFrontier(std::size_t sinks, std::int64_t instances)
      : instances_(instances),
        sinks_(sinks),
        stamps_(static_cast<std::size_t>(instances), 0.0) {}

  /// Instances complete so far.
  std::int64_t complete() const { return frontier_.load(); }

  bool done(std::memory_order order = std::memory_order_seq_cst) const {
    return frontier_.load(order) >= instances_;
  }

  /// Sink `sink` has committed instances [0, count).  Only the sink's own
  /// worker calls this for it.  Moves the frontier past every instance all
  /// sinks have committed and stamps those with `now()`.  Returns true when
  /// this call completed the stream.
  template <class Now>
  bool commit(std::size_t sink, std::int64_t count, Now&& now) {
    sinks_[sink].committed.store(count);
    std::int64_t low = instances_;
    for (const SinkCount& s : sinks_) low = std::min(low, s.committed.load());
    std::int64_t from = frontier_.load();
    while (from < low) {
      if (!frontier_.compare_exchange_weak(from, low)) continue;
      std::fill(stamps_.begin() + from, stamps_.begin() + low, now());
      return low == instances_;
    }
    return false;
  }

  /// The completion stamp of every instance; call once, after every
  /// committing thread has joined.  Each frontier step reads its clock
  /// after its compare-exchange, so two steps racing may have stamped out
  /// of order; an instance is complete no later than its successor, hence
  /// the running maximum.
  std::vector<double> take_stamps() {
    for (std::size_t i = 1; i < stamps_.size(); ++i) {
      stamps_[i] = std::max(stamps_[i], stamps_[i - 1]);
    }
    return std::move(stamps_);
  }

 private:
  /// Instances committed by one sink task, on its own cache line.
  struct alignas(64) SinkCount {
    std::atomic<std::int64_t> committed{0};
  };

  std::int64_t instances_;
  std::vector<SinkCount> sinks_;
  std::atomic<std::int64_t> frontier_{0};
  std::vector<double> stamps_;
};

}  // namespace cellstream::runtime
