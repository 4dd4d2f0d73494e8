#include "runtime/host_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <iomanip>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/dataflow.hpp"
#include "fault/injector.hpp"
#include "mapping/heuristics.hpp"
#include "runtime/completion_frontier.hpp"

namespace cellstream::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// Data written by different threads sits on different cache lines, so one
/// worker's stores do not invalidate the line another worker is reading.
constexpr std::size_t kCacheLine = 64;

constexpr std::size_t kNotSink = static_cast<std::size_t>(-1);

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One edge: a fixed ring of `depth` packets (the analysis' buff_{k,l} in
/// instances) between one producer and one consumer.  The packet of
/// instance j lives in slots[j % depth].  Only the producer's worker stores
/// `produced`, only the consumer's stores `consumed`; the readiness rule
/// keeps the live window [consumed, produced) within `depth` slots, so the
/// producer never overwrites a packet the consumer may still read.
struct alignas(kCacheLine) EdgeRing {
  // Set at construction.
  std::vector<Packet> slots;
  std::int64_t depth = 0;
  // The producer's line.
  alignas(kCacheLine) std::atomic<std::int64_t> produced{0};
  std::int64_t max_occupancy = 0;
  // The consumer's line.
  alignas(kCacheLine) std::atomic<std::int64_t> consumed{0};

  Packet& slot(std::int64_t instance) {
    return slots[static_cast<std::size_t>(instance % depth)];
  }
};

/// Per-task state.  Only the worker of the task's PE touches it; a failover
/// hands it to another worker while every worker is parked.
struct alignas(kCacheLine) TaskState {
  std::int64_t next_instance = 0;
  int peek = 0;
  std::size_t sink = kNotSink;    // index into Runtime::frontier_'s sinks
  std::vector<EdgeId> in_edges;   // graph order
  std::vector<EdgeId> out_edges;  // graph order
  // Placement-derived, recomputed on every remap.  An edge whose endpoints
  // sit on different PEs crosses both interfaces (producer out, consumer
  // in); a PE-local edge touches neither.
  std::vector<bool> in_remote;
  std::vector<bool> out_remote;
  /// The other PEs at the far end of this task's edges: a commit changes
  /// their `produced` or `consumed`, so these are the workers it may wake.
  std::vector<PeId> peers;
  /// The body's argument, shaped once and refilled on every execution.
  TaskInputs inputs;
};

/// One worker's state.  The asleep flag is written by peers; everything
/// after it is the worker's own, read by another thread only after the
/// join (the heartbeat excepted, which the watchdog samples).
struct alignas(kCacheLine) Worker {
  /// 1 while the worker is asleep or about to be; the peer that swaps it
  /// back to 0 is the one that wakes it.
  std::atomic<std::uint32_t> asleep{0};
  /// Progress events (selections, commits, failover steps) so far.
  alignas(kCacheLine) std::atomic<std::uint64_t> heartbeat{0};
  std::size_t cursor = 0;  // round-robin position in the PE's task list
  /// Start of the current awake span, added to the running time
  /// (counters.compute_seconds) when the worker sleeps, parks or exits.
  Clock::time_point awake_since{};
  obs::PeCounters counters;
  std::vector<obs::TraceEvent> trace;
  obs::FaultStats faults;
};

class Runtime {
 public:
  Runtime(const SteadyStateAnalysis& analysis, const Mapping& mapping,
          const std::vector<TaskFunction>& tasks, const RunOptions& options)
      : analysis_(analysis),
        graph_(analysis.graph()),
        platform_(analysis.platform()),
        mapping_(mapping),
        tasks_(tasks),
        opt_(options),
        edges_(graph_.edge_count()),
        states_(graph_.task_count()),
        workers_(platform_.pe_count()),
        // A stream length below 1 is refused just below.
        frontier_(graph_.sinks().size(),
                  std::max<std::int64_t>(options.instances, 0)) {
    CS_ENSURE(opt_.instances >= 1, "run_stream: empty stream");
    CS_ENSURE(opt_.wall_timeout_seconds > 0.0, "run_stream: no time budget");
    CS_ENSURE(tasks.size() == graph_.task_count(),
              "run_stream: need one TaskFunction per task");
    for (const TaskFunction& fn : tasks) {
      CS_ENSURE(fn != nullptr, "run_stream: null TaskFunction");
    }
    mapping.validate(platform_);
    CS_ENSURE(opt_.failover_strategy != mapping::RemapStrategy::kMilp,
              "run_stream: the host runtime never waits on a solver; the '" +
                  std::string(mapping::to_string(opt_.failover_strategy)) +
                  "' failover strategy needs fault::run_with_failover");
    if (opt_.record_trace) {
      obs::ensure_traceable(graph_, platform_, "run_stream");
    }
    if (opt_.fault_plan != nullptr && !opt_.fault_plan->empty()) {
      opt_.fault_plan->validate(platform_);
      injector_.emplace(*opt_.fault_plan);
      hang_fired_.assign(opt_.fault_plan->hangs.size(), 0);
    }
    time_bodies_ = opt_.record_trace || injector_.has_value();

    for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
      edges_[e].depth = analysis.buffer_depth(e);
      edges_[e].slots.resize(static_cast<std::size_t>(edges_[e].depth));
    }
    std::size_t sinks = 0;
    for (TaskId t = 0; t < graph_.task_count(); ++t) {
      TaskState& state = states_[t];
      state.peek = graph_.task(t).peek;
      state.in_edges = graph_.in_edges(t);
      state.out_edges = graph_.out_edges(t);
      if (state.out_edges.empty()) state.sink = sinks++;
      state.inputs.stream_length = opt_.instances;
      state.inputs.inputs.assign(
          state.in_edges.size(),
          std::vector<const Packet*>(static_cast<std::size_t>(state.peek) + 1));
    }
    rebuild_placement();
  }

  RunStats run() {
    start_ = Clock::now();
    // With a fail-stop in the plan every PE gets a worker: an idle PE may
    // inherit remapped tasks mid-stream.
    const bool spawn_all = injector_ && injector_->has_pe_failure();
    std::vector<PeId> spawn;
    for (PeId pe = 0; pe < pe_tasks_.size(); ++pe) {
      if (spawn_all || !pe_tasks_[pe].empty()) spawn.push_back(pe);
    }
    active_ = spawn.size();
    std::vector<std::thread> threads;
    threads.reserve(spawn.size());
    try {
      for (PeId pe : spawn) {
        threads.emplace_back([this, pe] { worker(pe); });
      }
    } catch (...) {
      // Thread spawn failed mid-way.  Stop the workers already running and
      // fall through to the joins; letting the exception unwind past a
      // vector of joinable threads would call std::terminate.
      std::lock_guard<std::mutex> guard(control_);
      active_ -= spawn.size() - threads.size();
      fail_locked(std::current_exception());
    }
    try {
      watch(spawn);
    } catch (...) {
      std::lock_guard<std::mutex> guard(control_);
      fail_locked(std::current_exception());
    }
    for (std::thread& t : threads) t.join();
    if (failure_) std::rethrow_exception(failure_);
    CS_ENSURE(!timed_out_,
              "run_stream: watchdog — no progress for " +
                  std::to_string(opt_.wall_timeout_seconds) +
                  " s (dataflow deadlock or hung task code); " +
                  stall_detail_);

    RunStats stats;
    stats.wall_seconds = seconds_between(start_, Clock::now());
    stats.max_buffer_occupancy.reserve(edges_.size());
    stats.edge_produced.reserve(edges_.size());
    stats.edge_delivered.reserve(edges_.size());
    for (const EdgeRing& edge : edges_) {
      stats.max_buffer_occupancy.push_back(edge.max_occupancy);
      stats.edge_produced.push_back(edge.produced.load());
      stats.edge_delivered.push_back(edge.consumed.load());
    }
    // Every worker has joined: collect their telemetry.  `spawn` holds
    // each PE once, so assigning its slot cannot count a worker twice.
    stats.counters.domain = obs::TimeDomain::kWall;
    stats.counters.pe.resize(platform_.pe_count());
    stats.counters.elapsed_seconds = stats.wall_seconds;
    std::size_t events = 0;
    for (PeId pe : spawn) events += workers_[pe].trace.size();
    stats.trace.reserve(events);
    for (PeId pe : spawn) {
      Worker& w = workers_[pe];
      stats.counters.pe[pe] = w.counters;
      stats.tasks_executed += w.counters.tasks_executed;
      stats.trace.insert(stats.trace.end(), w.trace.begin(), w.trace.end());
      std::vector<obs::TraceEvent>().swap(w.trace);
      faults_.merge(w.faults);
    }
    stats.counters.instance_completion = frontier_.take_stamps();
    stats.faults = faults_;
    stats.final_mapping = mapping_;
    return stats;
  }

 private:
  double wall_now() const { return seconds_between(start_, Clock::now()); }

  /// Count one progress event of this worker for the watchdog.
  static void beat(Worker& self) {
    self.heartbeat.store(self.heartbeat.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }

  /// The dataflow readiness rule (core/dataflow.hpp) on the rings.  The
  /// acquire loads make the producer's packet, and the consumer's last read
  /// of a slot about to be reused, happen before this worker's access.
  bool runnable(const TaskState& state, std::memory_order order) const {
    const std::int64_t i = state.next_instance;
    if (i >= opt_.instances) return false;
    const std::int64_t need =
        dataflow::inputs_needed(i, state.peek, opt_.instances);
    for (EdgeId e : state.in_edges) {
      if (edges_[e].produced.load(order) < need) return false;
    }
    for (EdgeId e : state.out_edges) {
      const EdgeRing& edge = edges_[e];
      if (!dataflow::has_free_slot(
              edge.produced.load(std::memory_order_relaxed),
              edge.consumed.load(order), edge.depth)) {
        return false;
      }
    }
    return true;
  }

  /// Next runnable task of `pe`, round-robin for fairness.  pe_tasks_ is
  /// re-read every time: a failover remap may have changed it.
  std::optional<TaskId> select(PeId pe, Worker& self) {
    const std::vector<TaskId>& assigned = pe_tasks_[pe];
    for (std::size_t probe = 0; probe < assigned.size(); ++probe) {
      const std::size_t at = (self.cursor + probe) % assigned.size();
      if (runnable(states_[assigned[at]], std::memory_order_acquire)) {
        self.cursor = (at + 1) % assigned.size();
        return assigned[at];
      }
    }
    return std::nullopt;
  }

  /// Whether a worker about to sleep has anything to do.  Every load is
  /// seq_cst: see sleep().
  bool has_work(PeId pe) const {
    if (stop_.load() || barrier_.load() || frontier_.done()) {
      return true;
    }
    for (TaskId t : pe_tasks_[pe]) {
      if (runnable(states_[t], std::memory_order_seq_cst)) return true;
    }
    return false;
  }

  /// Close the worker's awake span: add it to the running time.  Each
  /// instant of the run lands in at most one span, so a PE's running time
  /// never exceeds the run's wall time.
  static void add_running_time(Worker& self) {
    const Clock::time_point now = Clock::now();
    self.counters.compute_seconds += seconds_between(self.awake_since, now);
    self.awake_since = now;
  }

  /// Sleep until a peer wakes this worker.  No wake-up is lost: the store
  /// of the asleep flag, the recheck in has_work(), a committer's store of
  /// `produced`/`consumed` and its load of the flag in wake() are all
  /// seq_cst, so either the committer sees the flag and wakes the worker,
  /// or the recheck sees the commit.  Control events (stop, barrier,
  /// stream end) set their flag before ring_all(), so the recheck sees
  /// them too.
  void sleep(PeId pe, Worker& self) {
    self.asleep.store(1);
    if (has_work(pe)) {
      self.asleep.store(0);
      return;
    }
    add_running_time(self);
    self.asleep.wait(1);
    self.awake_since = Clock::now();
  }

  /// Wake `pe`'s worker if it is asleep.  Of all the peers that find the
  /// flag set, only the one whose exchange clears it makes the system
  /// call, so one sleep costs at most one notify.
  void wake(PeId pe) {
    std::atomic<std::uint32_t>& asleep = workers_[pe].asleep;
    if (asleep.load() == 0) return;
    if (asleep.exchange(0) == 1) asleep.notify_one();
  }

  void ring_all() {
    for (Worker& w : workers_) {
      w.asleep.store(0);
      w.asleep.notify_one();
    }
  }

  /// (Re)derive placement state from mapping_: per-PE task lists in
  /// topological order, and the remote flags and wake-up peers of every
  /// task.  Used at construction and again at the failover barrier.
  void rebuild_placement() {
    pe_tasks_.assign(platform_.pe_count(), {});
    for (TaskId t : graph_.topological_order()) {
      TaskState& state = states_[t];
      const PeId here = mapping_.pe_of(t);
      state.in_remote.clear();
      state.out_remote.clear();
      state.peers.clear();
      const auto link = [&](std::vector<bool>& remote, PeId other) {
        remote.push_back(other != here);
        if (other != here && std::find(state.peers.begin(), state.peers.end(),
                                       other) == state.peers.end()) {
          state.peers.push_back(other);
        }
      };
      for (EdgeId e : state.in_edges) {
        link(state.in_remote, mapping_.pe_of(graph_.edge(e).from));
      }
      for (EdgeId e : state.out_edges) {
        link(state.out_remote, mapping_.pe_of(graph_.edge(e).to));
      }
      pe_tasks_[here].push_back(t);
    }
  }

  /// Fill the task's peek window with pointers into its input rings.
  TaskInputs& gather(TaskState& state) {
    TaskInputs& in = state.inputs;
    in.instance = state.next_instance;
    for (std::size_t k = 0; k < state.in_edges.size(); ++k) {
      EdgeRing& edge = edges_[state.in_edges[k]];
      for (int d = 0; d <= state.peek; ++d) {
        const std::int64_t j = in.instance + d;
        in.inputs[k][static_cast<std::size_t>(d)] =
            j < opt_.instances ? &edge.slot(j) : nullptr;
      }
    }
    return in;
  }

  void commit(Worker& self, TaskId t, std::vector<Packet>&& outputs) {
    TaskState& state = states_[t];
    CS_ENSURE(outputs.size() == state.out_edges.size(),
              "run_stream: task '" + graph_.task(t).name + "' returned " +
                  std::to_string(outputs.size()) + " packets for " +
                  std::to_string(state.out_edges.size()) + " output edges");
    const std::int64_t i = state.next_instance;
    for (std::size_t k = 0; k < state.out_edges.size(); ++k) {
      EdgeRing& edge = edges_[state.out_edges[k]];
      // A cross-PE packet leaves through the producer's out interface.
      if (state.out_remote[k]) {
        self.counters.bytes_out += static_cast<double>(outputs[k].size());
      }
      edge.slot(i) = std::move(outputs[k]);
      edge.max_occupancy = std::max(
          edge.max_occupancy,
          i + 1 - edge.consumed.load(std::memory_order_relaxed));
      edge.produced.store(i + 1);
    }
    // The instance-i packet of every cross-PE input just arrived through
    // this (consumer) PE's in interface; in the receiver-reads protocol
    // the consumer also issued the transfer.  Read before the slot is
    // released below.
    for (std::size_t k = 0; k < state.in_edges.size(); ++k) {
      if (!state.in_remote[k]) continue;
      self.counters.bytes_in +=
          static_cast<double>(edges_[state.in_edges[k]].slot(i).size());
      ++self.counters.transfers_issued;
    }
    // Instances <= i of every input are no longer needed: release them,
    // keeping the peek window [i+1, i+peek] alive.
    for (EdgeId e : state.in_edges) edges_[e].consumed.store(i + 1);
    state.next_instance = i + 1;
    // The stream is complete: wake every sleeping worker so it can leave.
    if (state.sink != kNotSink &&
        frontier_.commit(state.sink, i + 1, [this] { return wall_now(); })) {
      ring_all();
    }
    for (PeId peer : state.peers) wake(peer);
    beat(self);
  }

  /// Record the run's first failure and stop every worker.
  void fail_locked(std::exception_ptr failure) {
    if (failure_ == nullptr) failure_ = failure;
    stop_locked();
  }

  void stop_locked() {
    stop_.store(true);
    control_cv_.notify_all();
    ring_all();
  }

  /// Fail-stop trigger, on the dying PE's worker: raise the failover
  /// barrier and wake every worker so each peer parks at its next task
  /// boundary.  The trigger worker becomes the coordinator.
  void begin_failover(PeId pe) {
    std::lock_guard<std::mutex> guard(control_);
    dead_pe_ = pe;
    drain_start_ = Clock::now();
    barrier_.store(true);
    ring_all();
  }

  /// The failover epoch barrier.  Peers park here between tasks, so every
  /// ring and task state is at a consistent cut; the coordinator waits for
  /// all of them, remaps the orphans, rebuilds placement (remote flags and
  /// wake-up targets) and releases them.  Returns false when the calling
  /// worker must leave (its PE is dead, or the run stopped).
  bool drain(PeId pe) {
    std::unique_lock<std::mutex> lock(control_);
    if (pe == dead_pe_) {
      control_cv_.wait(lock, [&] { return stop_ || parked_ + 1 >= active_; });
      if (stop_) return false;
      perform_failover_locked();
      barrier_.store(false);
      control_cv_.notify_all();
      return false;
    }
    // Parking is NOT progress: a drain stuck behind a hung body still
    // trips the watchdog.
    ++parked_;
    control_cv_.notify_all();  // the coordinator recounts the barrier
    control_cv_.wait(lock, [&] { return stop_ || !barrier_; });
    --parked_;
    return !stop_;
  }

  /// Coordinator body, entered once every other live worker is parked:
  /// remap the orphans, account the migration, rebuild placement.
  void perform_failover_locked() {
    Mapping post = mapping::remap_after_failure(analysis_, mapping_, dead_pe_,
                                                opt_.failover_strategy);
    // Migration volume: every moved task's buffer region must be
    // re-established at its new host, and the packets currently buffered
    // on edges with a moved endpoint cross the interface once more.
    mapping::count_migration(analysis_, mapping_, post, faults_);
    for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
      const Edge& edge = graph_.edge(e);
      if (post.pe_of(edge.from) == mapping_.pe_of(edge.from) &&
          post.pe_of(edge.to) == mapping_.pe_of(edge.to)) {
        continue;
      }
      EdgeRing& ring = edges_[e];
      for (std::int64_t j = ring.consumed.load(); j < ring.produced.load();
           ++j) {
        faults_.migrated_bytes += static_cast<double>(ring.slot(j).size());
      }
    }
    mapping_ = std::move(post);
    rebuild_placement();
    ++faults_.failovers;
    faults_.failed_pe = static_cast<std::int64_t>(dead_pe_);
    faults_.fail_instance = injector_->fail_instance();
    faults_.downtime_seconds += seconds_between(drain_start_, Clock::now());
    beat(workers_[dead_pe_]);
  }

  /// The progress watchdog, on the calling thread while the workers run.
  /// It samples every worker's heartbeat each tick; progress anywhere
  /// rearms the window, and one quiet window stops the run and records
  /// which workers stalled.  Worker exits notify it, so it returns as soon
  /// as the last worker leaves.
  void watch(const std::vector<PeId>& spawn) {
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(opt_.wall_timeout_seconds));
    const Clock::duration tick =
        std::clamp<Clock::duration>(window / 8, std::chrono::milliseconds(1),
                                    std::chrono::milliseconds(50));
    std::vector<std::uint64_t> seen(spawn.size(), 0);
    std::vector<Clock::time_point> seen_at(spawn.size(), start_);
    Clock::time_point last_progress = start_;
    std::unique_lock<std::mutex> lock(control_);
    while (active_ > 0) {
      control_cv_.wait_for(lock, tick);
      const Clock::time_point now = Clock::now();
      for (std::size_t w = 0; w < spawn.size(); ++w) {
        const std::uint64_t beats =
            workers_[spawn[w]].heartbeat.load(std::memory_order_relaxed);
        if (beats == seen[w]) continue;
        seen[w] = beats;
        seen_at[w] = now;
        last_progress = now;
      }
      if (active_ == 0 || stop_ || now - last_progress < window) continue;
      timed_out_ = true;
      stall_detail_ = stall_diagnostics_locked(spawn, seen, seen_at, now);
      stop_locked();
    }
  }

  std::string stall_diagnostics_locked(
      const std::vector<PeId>& spawn, const std::vector<std::uint64_t>& seen,
      const std::vector<Clock::time_point>& seen_at,
      Clock::time_point now) const {
    std::ostringstream out;
    out << frontier_.complete() << "/" << opt_.instances
        << " instances complete; heartbeats:";
    for (std::size_t w = 0; w < spawn.size(); ++w) {
      if (seen[w] == 0) continue;  // worker never progressed
      out << " " << platform_.pe_name(spawn[w]) << "=" << std::fixed
          << std::setprecision(2) << seconds_between(seen_at[w], now)
          << "s-ago";
    }
    if (barrier_) {
      out << "; failover drain in progress (failed "
          << platform_.pe_name(dead_pe_) << ", " << parked_ << "/"
          << (active_ == 0 ? 0 : active_ - 1) << " workers parked)";
    }
    return out.str();
  }

  // Top-level worker frame: nothing may escape a std::thread body, so any
  // exception the loop leaks (task code, a wrong output arity, a failed
  // remap) is recorded as the run's first failure and every peer is
  // stopped.  run() joins all workers and then rethrows that failure.
  void worker(PeId pe) {
    Worker& self = workers_[pe];
    self.awake_since = Clock::now();
    try {
      worker_loop(pe);
    } catch (...) {
      std::lock_guard<std::mutex> guard(control_);
      fail_locked(std::current_exception());
    }
    add_running_time(self);  // the last span, on every exit path
    std::lock_guard<std::mutex> guard(control_);
    --active_;
    control_cv_.notify_all();  // the watchdog and the barrier recount
  }

  void worker_loop(PeId pe) {
    Worker& self = workers_[pe];
    while (true) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (barrier_.load(std::memory_order_acquire)) {
        // Parked at the barrier is not running time.
        add_running_time(self);
        const bool resume = drain(pe);
        self.awake_since = Clock::now();
        if (!resume) return;
        continue;
      }
      if (frontier_.done(std::memory_order_acquire)) return;

      const std::optional<TaskId> chosen = select(pe, self);
      if (!chosen) {
        sleep(pe, self);
        continue;
      }
      TaskState& state = states_[*chosen];
      const std::int64_t instance = state.next_instance;

      // Permanent fail-stop: this PE refuses every instance past the fail
      // index; instances below it (pipeline stragglers) still complete so
      // the drain cut stays consistent.
      if (injector_ && injector_->fail_stop(pe, instance)) {
        begin_failover(pe);
        continue;
      }
      beat(self);

      // Deterministic transient faults for this execution.  The injector
      // is pure, and a hang spec names one PE, so its one-shot latch is
      // only ever touched by this worker.
      double dma_backoff = 0.0;
      double hang_stall = 0.0;
      double slow_factor = 1.0;
      if (injector_) {
        for (std::size_t k = 0; k < state.in_edges.size(); ++k) {
          if (!state.in_remote[k]) continue;
          dma_backoff += injector_->dma_delay(
              fault::FaultInjector::TransferKind::kEdge, state.in_edges[k],
              instance, &self.faults.dma_retries);
        }
        slow_factor = injector_->compute_factor(pe, instance);
        const std::size_t hang = injector_->hang_index(pe, instance);
        if (hang != fault::FaultInjector::npos && !hang_fired_[hang]) {
          hang_fired_[hang] = 1;
          hang_stall = injector_->hang_seconds(hang);
        }
      }

      const TaskInputs& inputs = gather(state);
      if (dma_backoff > 0.0) {
        // The consumer-side fetch of this instance's remote inputs hit
        // the plan's retry/backoff sequence; data is delayed, never lost.
        // Waiting on it is not running time.
        self.faults.backoff_seconds += dma_backoff;
        self.counters.compute_seconds -= dma_backoff;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(dma_backoff));
      }
      // Only the trace and the slowdowns need a body's own time; the
      // running time comes from the awake spans.
      Clock::time_point body_start{};
      if (time_bodies_) body_start = Clock::now();
      std::vector<Packet> outputs = tasks_[*chosen](inputs);
      Clock::time_point body_end{};
      if (time_bodies_) body_end = Clock::now();
      double injected = hang_stall;
      if (slow_factor > 1.0) {
        const double slow =
            (slow_factor - 1.0) * seconds_between(body_start, body_end);
        injected += slow;
        self.faults.slowdown_seconds += slow;
      }
      if (hang_stall > 0.0) {
        ++self.faults.hangs;
        self.faults.hang_seconds += hang_stall;
      }
      if (injected > 0.0) {
        // Injected stall is overhead, not running time: the occupation
        // cross-check compares nominal work against the model.
        self.counters.overhead_seconds += injected;
        self.counters.compute_seconds -= injected;
        std::this_thread::sleep_for(std::chrono::duration<double>(injected));
      }
      ++self.counters.tasks_executed;
      if (opt_.record_trace) {
        obs::TraceEvent event;
        event.kind = obs::TraceEvent::Kind::kCompute;
        event.pe = static_cast<std::uint16_t>(pe);
        event.src_pe = event.pe;
        event.start = seconds_between(start_, body_start);
        event.end = seconds_between(start_, body_end);
        event.instance = instance;
        event.task = static_cast<std::int32_t>(*chosen);
        self.trace.push_back(event);
      }
      commit(self, *chosen, std::move(outputs));
    }
  }

  const SteadyStateAnalysis& analysis_;
  const TaskGraph& graph_;
  const CellPlatform& platform_;
  Mapping mapping_;  // by value: a failover remap rewrites it mid-run
  const std::vector<TaskFunction>& tasks_;
  RunOptions opt_;
  /// Read the clock around each body: the trace keeps exact body windows
  /// and a slowdown scales the body's time.  Off, the per-task path reads
  /// no clock.
  bool time_bodies_ = false;
  Clock::time_point start_{};

  // Data plane: no lock.  Each field's owner is given at its type.
  std::vector<EdgeRing> edges_;
  std::vector<TaskState> states_;
  std::vector<Worker> workers_;             // indexed by PE
  std::vector<std::vector<TaskId>> pe_tasks_;  // rewritten at the barrier
  CompletionFrontier frontier_;
  std::atomic<bool> stop_{false};          // set under control_
  std::atomic<bool> barrier_{false};       // set and cleared under control_

  // Fault machinery.  The injector is pure; each hang latch belongs to the
  // worker of the PE its spec names.
  std::optional<fault::FaultInjector> injector_;
  std::vector<char> hang_fired_;

  // Control plane: first failure, failover barrier, watchdog.
  std::mutex control_;
  std::condition_variable control_cv_;
  std::size_t active_ = 0;  // workers not yet exited
  std::size_t parked_ = 0;  // peers waiting at the failover barrier
  PeId dead_pe_ = static_cast<PeId>(-1);
  Clock::time_point drain_start_{};
  obs::FaultStats faults_;  // failover fields; workers' merged at the end
  std::exception_ptr failure_ = nullptr;
  bool timed_out_ = false;
  std::string stall_detail_;
};

}  // namespace

RunStats run_stream(const SteadyStateAnalysis& analysis,
                    const Mapping& mapping,
                    const std::vector<TaskFunction>& tasks,
                    const RunOptions& options) {
  Runtime runtime(analysis, mapping, tasks, options);
  return runtime.run();
}

}  // namespace cellstream::runtime
