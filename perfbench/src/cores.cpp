#include "cores.hpp"

#include <sched.h>

namespace perfbench {

namespace {

void set_affinity(const std::vector<int>& cores) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cores) CPU_SET(c, &set);
  // A refusal leaves the thread where it was; the run stays valid.
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

CoreRotation::CoreRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cores_.push_back(c);
  }
}

void CoreRotation::next(std::size_t width) {
  if (cores_.size() <= width) {
    release();
    return;
  }
  std::vector<int> pick;
  for (std::size_t i = 0; i < width; ++i) {
    pick.push_back(cores_[(turn_ + i) % cores_.size()]);
  }
  ++turn_;
  set_affinity(pick);
}

void CoreRotation::release() {
  if (cores_.size() < 2) return;
  set_affinity(cores_);
}

}  // namespace perfbench
