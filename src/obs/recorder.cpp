#include "obs/recorder.hpp"

#include <algorithm>

namespace cellstream::obs {

const char* to_string(TimeDomain domain) {
  switch (domain) {
    case TimeDomain::kSimulated: return "simulated";
    case TimeDomain::kWall: return "wall";
  }
  return "unknown";
}

void PeCounters::merge(const PeCounters& other) {
  tasks_executed += other.tasks_executed;
  compute_seconds += other.compute_seconds;
  overhead_seconds += other.overhead_seconds;
  transfers_issued += other.transfers_issued;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  mfc_queue_peak = std::max(mfc_queue_peak, other.mfc_queue_peak);
  proxy_queue_peak = std::max(proxy_queue_peak, other.proxy_queue_peak);
}

std::uint64_t Counters::total_executions() const {
  std::uint64_t total = 0;
  for (const PeCounters& c : pe) total += c.tasks_executed;
  return total;
}

std::uint64_t Counters::total_transfers() const {
  std::uint64_t total = 0;
  for (const PeCounters& c : pe) total += c.transfers_issued;
  return total;
}

double Counters::observed_throughput() const {
  if (instance_completion.empty() || elapsed_seconds <= 0.0) return 0.0;
  return static_cast<double>(instance_completion.size()) / elapsed_seconds;
}

double Counters::steady_throughput() const {
  // Middle half of the stream: the first quarter excludes the pipeline
  // fill, the last quarter the drain (during which completions of the
  // final instances bunch up and would overstate the rate).
  const std::size_t n = instance_completion.size();
  const std::size_t lo = n / 4;
  const std::size_t hi = (3 * n) / 4;
  if (lo >= 1 && hi > lo &&
      instance_completion[hi - 1] > instance_completion[lo - 1]) {
    return static_cast<double>(hi - lo) /
           (instance_completion[hi - 1] - instance_completion[lo - 1]);
  }
  return observed_throughput();
}

std::vector<std::pair<std::size_t, double>> Counters::windowed_throughput(
    std::size_t window, std::size_t stride) const {
  CS_ENSURE(window >= 1 && stride >= 1, "windowed_throughput: bad window");
  std::vector<std::pair<std::size_t, double>> out;
  for (std::size_t i = window; i < instance_completion.size(); i += stride) {
    const double dt = instance_completion[i] - instance_completion[i - window];
    if (dt > 0.0) {
      out.emplace_back(i, static_cast<double>(window) / dt);
    }
  }
  return out;
}

void FaultStats::merge(const FaultStats& other) {
  dma_retries += other.dma_retries;
  backoff_seconds += other.backoff_seconds;
  hangs += other.hangs;
  hang_seconds += other.hang_seconds;
  slowdown_seconds += other.slowdown_seconds;
  failovers += other.failovers;
  downtime_seconds += other.downtime_seconds;
  migrated_tasks += other.migrated_tasks;
  migrated_bytes += other.migrated_bytes;
  if (other.failed_pe >= 0) failed_pe = other.failed_pe;
  if (other.fail_instance >= 0) fail_instance = other.fail_instance;
}

}  // namespace cellstream::obs
