#pragma once
// Sorted small-vector of out-of-order landed instance numbers.
//
// Under injected DMA retry stalls a later transfer can complete before an
// earlier one; the consumer reads its cyclic buffer in order, so such
// landings park here until the contiguous frontier reaches them.  The set
// is tiny (bounded by the DMA queue depth) and strictly drains from the
// front as the frontier advances, so a sorted vector with a lazy head
// offset beats the former std::set<int64_t>: no per-landing node
// allocation, and the frontier-advance loop is a pointer bump.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace cellstream::sim {

class LandingSet {
 public:
  bool empty() const { return head_ == values_.size(); }
  std::size_t size() const { return values_.size() - head_; }

  /// Insert a value not already present (each instance lands exactly
  /// once; a duplicate landing would be an accounting bug, so it throws).
  void insert(std::int64_t value) {
    const auto begin = values_.begin() + static_cast<std::ptrdiff_t>(head_);
    const auto it = std::lower_bound(begin, values_.end(), value);
    CS_ASSERT(it == values_.end() || *it != value,
              "LandingSet: duplicate landing");
    values_.insert(it, value);
  }

  /// Pop `frontier` while it is the smallest parked value, advancing the
  /// reference: returns the new frontier after consuming the contiguous
  /// run that starts at `frontier`.
  std::int64_t advance_frontier(std::int64_t frontier) {
    while (head_ < values_.size() && values_[head_] == frontier) {
      ++head_;
      ++frontier;
    }
    compact();
    return frontier;
  }

  /// Visit parked values in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i < values_.size(); ++i) fn(values_[i]);
  }

  /// Translate every parked value by `delta` (steady-state fast-forward).
  void shift(std::int64_t delta) {
    for (std::size_t i = head_; i < values_.size(); ++i) values_[i] += delta;
  }

 private:
  void compact() {
    // Reclaim the consumed prefix once it dominates the storage; keeps
    // the vector from creeping even on endless retry-stall runs.
    // (An element loop rather than erase(): GCC 12 at -O3 reports a
    // spurious -Wstringop-overread on erase's memmove once inlined.)
    if (head_ >= 8 && head_ * 2 >= values_.size()) {
      const std::size_t live = values_.size() - head_;
      for (std::size_t i = 0; i < live; ++i) values_[i] = values_[head_ + i];
      values_.resize(live);
      head_ = 0;
    }
  }

  std::vector<std::int64_t> values_;
  std::size_t head_ = 0;  // values_[0..head_) already consumed
};

}  // namespace cellstream::sim
