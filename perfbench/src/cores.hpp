#pragma once
// Spreads the benchmark's single-threaded operations evenly over the cores
// the process may use.
//
// On a shared host each core runs at its own speed for tens of seconds at
// a time (its hardware neighbours come and go), and the cores differ by up
// to 2x at once.  A single-threaded operation left to the scheduler stays
// on whichever core it started on, so a run would measure that core.
// Pinning each operation to the next core in turn makes every run average
// over all of them.  Threads inherit the affinity of the thread that
// starts them, so the 4-thread MILP calls release() first, and a host
// runtime run with two workers is pinned to the next two cores in turn.

#include <cstddef>
#include <vector>

namespace perfbench {

class CoreRotation {
 public:
  /// Reads the cores the process may use.
  CoreRotation();

  /// Pins the calling thread to the next `width` cores in turn (each call
  /// moves on by one core).  Releases it instead when the process may use
  /// no more than `width` cores; does nothing if the host refuses.
  void next(std::size_t width = 1);
  /// Lets the calling thread, and the threads it starts, use every core.
  void release();

 private:
  std::vector<int> cores_;
  std::size_t turn_ = 0;
};

}  // namespace perfbench
