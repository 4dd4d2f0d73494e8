#pragma once
// A set of indices in [0, n) kept as a bitmap that remembers the span of
// 64-bit words it has touched, so scanning and emptying the set cost that
// span rather than n.  The sparse LU uses it for the reach of a column or
// a right-hand side, the simplex for the columns pricing touched.
//
// Scans visit members in index order and re-read the current word after
// every visit, so a visitor may insert members on the far side of the one
// it was handed (above it for ascend/drain, below it for descend) and
// they are visited in the same scan.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cellstream::lp {

class IndexSet {
 public:
  /// Make the set empty over [0, n).
  void reset(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
    lo_ = words_.size();
    hi_ = 0;
  }

  void insert(std::size_t i) {
    const std::size_t word = i / 64;
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((words_[word] & bit) != 0) return;
    words_[word] |= bit;
    lo_ = std::min(lo_, word);
    hi_ = std::max(hi_, word);
  }

  /// Visit the members in ascending order; `visit(i)` may insert above i.
  template <class Visit>
  void ascend(Visit&& visit) {
    for (std::size_t word = lo_; word <= hi_ && word < words_.size(); ++word) {
      std::uint64_t bits = words_[word];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        visit(word * 64 + static_cast<std::size_t>(bit));
        bits = words_[word] & ~((std::uint64_t{2} << bit) - 1);
      }
    }
  }

  /// Visit the members in descending order; `visit(i)` may insert below i.
  template <class Visit>
  void descend(Visit&& visit) {
    for (std::size_t word = std::min(hi_ + 1, words_.size()); word-- > lo_;) {
      std::uint64_t bits = words_[word];
      while (bits != 0) {
        const int bit = 63 - std::countl_zero(bits);
        visit(word * 64 + static_cast<std::size_t>(bit));
        bits = words_[word] & ((std::uint64_t{1} << bit) - 1);
      }
    }
  }

  /// Visit the members in ascending order, removing each before its visit,
  /// and leave the set empty; `visit(i)` may insert above i.
  template <class Visit>
  void drain(Visit&& visit) {
    for (std::size_t word = lo_; word <= hi_ && word < words_.size();) {
      const std::uint64_t bits = words_[word];
      if (bits == 0) {
        ++word;
        continue;
      }
      words_[word] = bits & (bits - 1);
      visit(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
    lo_ = words_.size();
    hi_ = 0;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t lo_ = 0;  // members lie in words lo_..hi_ (none if lo_ > hi_)
  std::size_t hi_ = 0;
};

}  // namespace cellstream::lp
