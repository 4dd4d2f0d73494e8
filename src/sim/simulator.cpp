#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "core/dataflow.hpp"
#include "des/engine.hpp"
#include "des/flow_network.hpp"
#include "fault/injector.hpp"
#include "sim/landing_set.hpp"
#include "support/strings.hpp"

namespace cellstream::sim {

namespace {

using des::NodeId;

/// Buffer slots of each task's main-memory read and write streams
/// (double-buffering and a bit of slack).
constexpr std::int64_t kMemoryStreamDepth = 4;

// ---------------------------------------------------------------------------
// Integer-nanosecond time grid.
//
// The engine clock runs in ticks of 1 ns, stored in a double.  Integer
// values are exact in a double up to 2^53 (≈ 104 simulated days), so
// sums and differences of event times are *exact*: when the scheduler
// state repeats after a period, the whole future event timeline repeats
// bit-identically, shifted by an exactly representable constant.  That is
// what makes the steady-state fast-forward sound (docs/PERFORMANCE.md).
// Durations under half a tick round to zero-length busy windows.
// ---------------------------------------------------------------------------
constexpr double kTicksPerSecond = 1e9;
constexpr double kSecondsPerTick = 1e-9;

double to_ticks(double seconds, const char* what) {
  CS_ENSURE(std::isfinite(seconds) && seconds >= 0.0 &&
                seconds * kTicksPerSecond < 9.0e15,
            std::string("simulate: bad duration for ") + what);
  return static_cast<double>(std::llround(seconds * kTicksPerSecond));
}

std::int64_t tick_delta(double later, double earlier) {
  // Both operands are integer-valued doubles; the difference is exact.
  return std::llround(later - earlier);
}

/// One unit of asynchronous communication a PE can initiate during its
/// communication phase.
struct Channel {
  enum class Kind { kEdgeFetch, kMemRead, kMemWrite };
  Kind kind;
  std::size_t index;  // EdgeId for kEdgeFetch, TaskId otherwise
};

/// How the steady-state fast-forward treats a progress counter.
enum class Progress {
  /// Moves once per stream instance: encoded relative to the done counter
  /// in the signature, translated by a jump, and part of its horizon.
  kAdvancing,
  /// Never moves in the steady state (or is an occupancy, not a position):
  /// encoded absolutely and never translated.  An advancing encoding of a
  /// counter that stays put would make every signature unique.
  kPinned,
};

/// One callable from a lambda per argument shape visit() passes.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

/// One DMA channel's progress: a remote edge's fetches, or a task's
/// main-memory reads or writes.  Each instance is issued once, in order,
/// and lands once; under injected retry stalls a later DMA can land before
/// an earlier one, so landings past a gap park until the contiguous
/// frontier reaches them.  Consumers read their cyclic buffers in order,
/// so fetched and read data become usable at the frontier; a written
/// instance frees its buffer slot as soon as it lands.
struct DmaStream {
  std::int64_t issued = 0;    // DMAs ever issued
  std::int64_t frontier = 0;  // instances [0, frontier) have all landed
  LandingSet parked;          // landed instances past the frontier

  void land(std::int64_t inst) {
    if (inst != frontier) {
      parked.insert(inst);
      return;
    }
    frontier = parked.advance_frontier(frontier + 1);
  }
  std::int64_t landed() const {
    return frontier + static_cast<std::int64_t>(parked.size());
  }

  /// A stream the state does not have stays at zero: pass kPinned.  The
  /// DMAs in the air (issued - landed()) follow from these fields.
  template <typename F>
  void visit(F&& f, Progress progress) {
    f(issued, progress);
    f(frontier, progress);
    f(parked);
  }
};

// Each state struct declares its progress once, in visit(f): f(counter,
// Progress) per counter and f(landing_set) per out-of-order landing set.
// The fast-forward's signature, jump horizon and translation are loops
// over visit, so a new progress field is declared there and nowhere else.

struct EdgeState {
  PeId src = 0, dst = 0;
  bool remote = false;
  std::int64_t depth = 0;   // buffer capacity in instances
  double bytes = 0.0;
  std::int64_t produced = 0;  // instances written by the producer
  DmaStream fetch;            // consumer-issued fetches (remote only)
  std::int64_t consumed = 0;  // instances the consumer is finished with
  std::size_t fetch_channel = 0;  // index in pes_[dst].channels (remote)

  template <typename F>
  void visit(F&& f) {
    f(produced, Progress::kAdvancing);
    fetch.visit(f, remote ? Progress::kAdvancing : Progress::kPinned);
    f(consumed, Progress::kAdvancing);
  }
};

struct TaskState {
  PeId pe = 0;
  double work = 0.0;        // seconds per instance on its host
  double work_ticks = 0.0;  // the same, on the event grid
  int peek = 0;
  std::int64_t next_instance = 0;
  double read_bytes = 0.0;  // main-memory streams (none at 0 bytes)
  double write_bytes = 0.0;
  DmaStream read, write;
  // Indices in pes_[pe].channels of the read and write channels (when the
  // stream has bytes).
  std::size_t read_channel = 0, write_channel = 0;

  template <typename F>
  void visit(F&& f) {
    f(next_instance, Progress::kAdvancing);
    read.visit(f, read_bytes > 0.0 ? Progress::kAdvancing : Progress::kPinned);
    write.visit(f,
                write_bytes > 0.0 ? Progress::kAdvancing : Progress::kPinned);
  }
};

// Behavior tags for pending events, used by the periodicity signature:
// a snapshot must describe not only the counters but what every pending
// closure will *do* when it fires.
constexpr std::uint64_t kTagIssue = 1ull << 60;
constexpr std::uint64_t kTagCompute = 2ull << 60;
constexpr std::uint64_t kTagWake = 3ull << 60;
constexpr std::uint64_t kTagFlowCompletion = 4ull << 60;

struct PeState {
  std::vector<TaskId> tasks;       // topological order
  std::vector<Channel> channels;   // communication work this PE initiates
  // ready[i] == channel_issuable(pe, channels[i]) between events: each
  // flag is re-derived where a counter it reads changes (refresh()), so
  // a communication phase scans flags instead of probing channels.
  // Derived from the counters, so the fast-forward signature omits it.
  std::vector<char> ready;
  std::size_t ready_count = 0;
  // The PPE fetch channels that read this SPE's local store through its
  // proxy queue: (PPE, index in its channels).
  std::vector<std::pair<PeId, std::size_t>> proxy_readers;
  std::size_t task_cursor = 0;
  std::size_t channel_cursor = 0;
  bool busy = false;
  bool wake_scheduled = false;
  std::size_t gets_outstanding = 0;   // SPE MFC queue (<= spe_dma_slots)
  std::size_t proxy_outstanding = 0;  // PPE-issued reads from this SPE (<= 8)
  // Pending-event attribution (periodicity snapshots).
  des::EventId busy_event = 0;   // valid while busy
  std::uint64_t busy_tag = 0;    // kTagIssue|channel or kTagCompute|task
  des::EventId wake_event = 0;   // valid while wake_scheduled
  // Accounting (folded into obs::Counters once, at the end of the run,
  // so totals are independent of how many events actually executed —
  // the fast-forward bit-identity requirement).
  std::uint64_t issue_attempts = 0;  // DMA-issue overhead windows paid
  double injected_seconds = 0.0;     // fault stalls booked as overhead
  std::size_t mfc_peak = 0;
  std::size_t proxy_peak = 0;

  /// The scheduler state the signature encodes as it is: f(word) each.
  /// None of it moves with the stream, so a jump never translates it.
  template <typename F>
  void visit(F&& f) const {
    f(task_cursor);
    f(channel_cursor);
    f(static_cast<std::uint64_t>(busy) |
      (static_cast<std::uint64_t>(wake_scheduled) << 1));
    f(gets_outstanding);
    f(proxy_outstanding);
  }
};

/// One DMA from issue to landing.  Both the retry-stall launch and the
/// completion capture only the slot index and read the DMA through it at
/// fire time, so a fast-forward time shift updates the instance a pending
/// completion will land (the closure itself cannot be rewritten once
/// scheduled).
struct InflightSlot {
  Channel channel{};
  PeId issuer = 0;   // the PE whose communication phase issued it
  double t0 = 0.0;   // issue tick: the queue slot is held from here
  std::int64_t inst = 0;
};

class Simulator {
 public:
  Simulator(const SteadyStateAnalysis& analysis, const Mapping& mapping,
            const SimOptions& options)
      : ss_(analysis),
        graph_(analysis.graph()),
        platform_(analysis.platform()),
        mapping_(mapping),
        opt_(options),
        net_(make_network()) {
    CS_ENSURE(opt_.instances >= 1, "simulate: empty stream");
    mapping.validate(platform_);
    CS_ENSURE(mapping.task_count() == graph_.task_count(),
              "simulate: mapping does not match the graph");
    // Refuse mappings whose buffers overflow a SPE local store (a real
    // Cell could not even load them).  DMA-count violations are *not*
    // rejected: the runtime simply serializes, as real hardware would.
    ResourceUsage u;
    ss_.account(mapping, u);
    for (PeId pe = platform_.ppe_count; pe < platform_.pe_count(); ++pe) {
      CS_ENSURE(!ss_.broken_limits(u, pe).buffers,
                "simulate: buffers of " + platform_.pe_name(pe) +
                    " exceed the local store (" +
                    format_bytes(u.buffer_bytes[pe]) + "); mapping cannot "
                    "be loaded on real hardware");
    }
    if (opt_.fault_plan != nullptr && !opt_.fault_plan->empty()) {
      opt_.fault_plan->validate(platform_);
      CS_ENSURE(opt_.instance_offset >= 0,
                "simulate: instance_offset must be >= 0");
      CS_ENSURE(!opt_.fault_plan->pe_failure,
                "simulate: plans with a permanent fail-stop need the "
                "failover coordinator (fault::run_with_failover); the raw "
                "simulator models transient faults only");
      injector_.emplace(*opt_.fault_plan);
      hang_fired_.assign(opt_.fault_plan->hangs.size(), 0);
    }
    dma_issue_ticks_ = to_ticks(opt_.dma_issue_overhead, "dma_issue_overhead");
    dispatch_ticks_ = to_ticks(opt_.dispatch_overhead, "dispatch_overhead");
    max_ticks_ = to_ticks(opt_.max_simulated_seconds, "max_simulated_seconds");
    net_.set_time_quantum(1.0);  // completions snap to the tick grid
    // Fast-forward is only sound when every event is periodic: injected
    // faults are instance-keyed (aperiodic by design), so a plan forces a
    // full run.  A traced run jumps too, and writes the skipped cycles'
    // events (engage_fast_forward).
    ff_enabled_ = opt_.fast_forward && !injector_;
    ff_info_.enabled = ff_enabled_;
    build_state();
    register_chip_links();
  }

  /// Also re-derive every channel pick by the full scan the readiness
  /// flags replace, and throw on the first pick they disagree with.
  void check_picks() { check_picks_ = true; }
  std::uint64_t picks_checked() const { return picks_checked_; }

  SimResult run();

 private:
  des::FlowNetwork make_network() {
    const std::size_t n = platform_.pe_count();
    // Port capacities are bytes per engine-time unit; the engine runs in
    // ticks, so scale bytes/s down by the tick length.
    std::vector<double> out_cap(n + 1,
                                platform_.interface_bandwidth * kSecondsPerTick);
    std::vector<double> in_cap(n + 1,
                               platform_.interface_bandwidth * kSecondsPerTick);
    out_cap[n] = des::FlowNetwork::infinity();  // main memory
    in_cap[n] = des::FlowNetwork::infinity();
    return des::FlowNetwork(engine_, std::move(out_cap), std::move(in_cap));
  }

  void build_state();
  void register_chip_links();

  des::TransferId start_edge_transfer(const EdgeState& e, PeId dst,
                                      des::InlineAction done) {
    if (platform_.chip_count > 1 && platform_.crosses_chips(e.src, dst)) {
      return net_.start_transfer_over(
          {net_.out_port(e.src), xchip_out_[platform_.chip_of(e.src)],
           xchip_in_[platform_.chip_of(dst)], net_.in_port(dst)},
          e.bytes, std::move(done));
    }
    return net_.start_transfer(e.src, dst, e.bytes, std::move(done));
  }

  /// The stream a channel moves: an edge's fetches, a task's reads or
  /// its writes.
  const DmaStream& stream(const Channel& ch) const {
    switch (ch.kind) {
      case Channel::Kind::kEdgeFetch: return edges_[ch.index].fetch;
      case Channel::Kind::kMemRead: return tasks_[ch.index].read;
      case Channel::Kind::kMemWrite: break;
    }
    return tasks_[ch.index].write;
  }
  DmaStream& stream(const Channel& ch) {
    return const_cast<DmaStream&>(std::as_const(*this).stream(ch));
  }
  /// The SPE whose proxy queue a DMA issued by `pe` occupies: a PPE's
  /// fetch from a SPE's local store.
  std::optional<PeId> proxy_of(PeId pe, const Channel& ch) const {
    if (ch.kind != Channel::Kind::kEdgeFetch || platform_.is_spe(pe)) {
      return std::nullopt;
    }
    const PeId src = edges_[ch.index].src;
    if (!platform_.is_spe(src)) return std::nullopt;
    return src;
  }

  void wake(PeId pe);
  void step(PeId pe);
  std::optional<std::size_t> find_issuable(PeId pe);
  std::optional<std::size_t> scan_issuable(PeId pe) const;
  bool channel_issuable(PeId pe, const Channel& channel) const;
  void refresh(PeId pe, std::size_t index);
  void refresh_all(PeId pe);
  void refresh_proxy_readers(PeId spe);
  void issue(PeId pe, std::size_t index);
  void launch(std::uint32_t slot);
  void land(std::uint32_t slot);
  std::optional<TaskId> find_runnable(PeId pe);
  bool task_runnable(TaskId t) const;
  void complete_instance(TaskId t);
  void advance_done_counter(std::int64_t completed_instance);
  void record(obs::TraceEvent ev, double start_tick);

  // Steady-state fast-forward (docs/PERFORMANCE.md).
  std::uint32_t alloc_inflight(const InflightSlot& dma);
  InflightSlot finish_inflight(std::uint32_t slot);
  const InflightSlot* find_inflight(des::TransferId id) const;
  /// Every edge's, then every task's visit(f), in signature order.
  template <typename F>
  void visit_progress(F&& f) {
    for (EdgeState& e : edges_) e.visit(f);
    for (TaskState& t : tasks_) t.visit(f);
  }
  void maybe_snapshot(TaskId completing_task);
  bool build_signature(std::vector<std::uint64_t>& sig, TaskId completing);
  struct Snapshot;
  void engage_fast_forward(const Snapshot& snap);
  void stop_detection();

  std::int64_t stream_len() const {
    return static_cast<std::int64_t>(opt_.instances);
  }

  const SteadyStateAnalysis& ss_;
  const TaskGraph& graph_;
  const CellPlatform& platform_;
  Mapping mapping_;
  SimOptions opt_;

  // Main memory sits on the extra flow-network node after the PEs.
  NodeId memory_node() const { return platform_.pe_count(); }

  des::Engine engine_;
  des::FlowNetwork net_;
  // Per-chip inter-chip link resources (Section 7 extension); empty on
  // single-chip platforms.
  std::vector<des::ResourceId> xchip_out_, xchip_in_;

  std::vector<EdgeState> edges_;
  std::vector<TaskState> tasks_;
  std::vector<PeState> pes_;

  double dma_issue_ticks_ = 0.0;
  double dispatch_ticks_ = 0.0;
  double max_ticks_ = 0.0;

  std::int64_t done_count_ = 0;
  std::int64_t tasks_at_done_ = 0;
  std::vector<double> completion_ticks_;
  std::vector<obs::TraceEvent> trace_;  // windows in ticks until run() ends

  // Deterministic fault injection (engaged only when a plan is supplied).
  std::optional<fault::FaultInjector> injector_;
  std::vector<char> hang_fired_;  // one-shot latch per hang spec
  obs::FaultStats faults_;

  bool check_picks_ = false;
  std::uint64_t picks_checked_ = 0;

  // -- Fast-forward state -------------------------------------------------
  struct Snapshot {
    std::uint64_t hash = 0;
    std::vector<std::uint64_t> sig;
    std::int64_t done = 0;
    double tick = 0.0;
    std::vector<std::uint64_t> attempts;  // per-PE issue_attempts
    std::size_t trace_size = 0;           // trace_.size()
  };
  // A cycle longer than this many instances is not detected (the window
  // bounds snapshot memory); detection stops after kDetectLimit instances
  // so aperiodic runs pay a bounded cost.
  static constexpr std::size_t kSnapshotWindow = 64;
  static constexpr std::int64_t kDetectLimit = 4096;

  bool ff_enabled_ = false;
  bool ff_done_ = false;
  FastForwardInfo ff_info_;
  std::vector<Snapshot> snapshots_;
  std::int64_t last_snapshot_done_ = -1;
  std::vector<std::uint64_t> sig_scratch_;
  std::int64_t max_peek_ = 0;
  // Slot slab of the DMAs between issue and landing (a slot is taken at
  // issue, before any retry stall) plus the launched transfers by id (ids
  // issue monotonically, so `inflight_` stays sorted) — gives the
  // signature a stable, instance-relative identity for every flow the
  // network reports, and gives pending completions a handle whose `inst`
  // a fast-forward shift can rewrite.  Hold slot indices, not references:
  // alloc_inflight may grow the slab.
  std::vector<InflightSlot> islots_;
  std::vector<std::uint32_t> islot_free_;
  std::vector<std::pair<des::TransferId, std::uint32_t>> inflight_;
};

void Simulator::register_chip_links() {
  if (platform_.chip_count <= 1) return;
  for (std::size_t chip = 0; chip < platform_.chip_count; ++chip) {
    xchip_out_.push_back(net_.add_resource(platform_.cross_chip_bandwidth *
                                           kSecondsPerTick));
    xchip_in_.push_back(net_.add_resource(platform_.cross_chip_bandwidth *
                                          kSecondsPerTick));
  }
}

void Simulator::build_state() {
  edges_.resize(graph_.edge_count());
  for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const Edge& edge = graph_.edge(e);
    EdgeState& state = edges_[e];
    state.src = mapping_.pe_of(edge.from);
    state.dst = mapping_.pe_of(edge.to);
    state.remote = state.src != state.dst;
    state.depth = ss_.buffer_depth(e);
    state.bytes = edge.data_bytes;
  }

  tasks_.resize(graph_.task_count());
  pes_.resize(platform_.pe_count());
  for (TaskId t : graph_.topological_order()) {
    const Task& task = graph_.task(t);
    TaskState& state = tasks_[t];
    state.pe = mapping_.pe_of(t);
    state.work = platform_.is_ppe(state.pe) ? task.wppe : task.wspe;
    state.work_ticks = to_ticks(state.work, "task work");
    state.peek = task.peek;
    state.read_bytes = task.read_bytes;
    state.write_bytes = task.write_bytes;
    max_peek_ = std::max(max_peek_, static_cast<std::int64_t>(task.peek));
    pes_[state.pe].tasks.push_back(t);
  }

  // Communication channels each PE polls during its communication phase:
  // remote-edge fetches it is the consumer of, then its tasks' memory
  // streams.
  const auto add_channel = [this](PeId pe, Channel ch) {
    pes_[pe].channels.push_back(ch);
    if (const std::optional<PeId> proxy = proxy_of(pe, ch)) {
      pes_[*proxy].proxy_readers.emplace_back(pe,
                                              pes_[pe].channels.size() - 1);
    }
    return pes_[pe].channels.size() - 1;
  };
  for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
    if (edges_[e].remote) {
      edges_[e].fetch_channel =
          add_channel(edges_[e].dst, {Channel::Kind::kEdgeFetch, e});
    }
  }
  for (TaskId t = 0; t < graph_.task_count(); ++t) {
    if (tasks_[t].read_bytes > 0.0) {
      tasks_[t].read_channel =
          add_channel(tasks_[t].pe, {Channel::Kind::kMemRead, t});
    }
    if (tasks_[t].write_bytes > 0.0) {
      tasks_[t].write_channel =
          add_channel(tasks_[t].pe, {Channel::Kind::kMemWrite, t});
    }
  }
  for (PeId pe = 0; pe < pes_.size(); ++pe) {
    pes_[pe].ready.assign(pes_[pe].channels.size(), 0);
    refresh_all(pe);
  }

  if (opt_.record_trace) {
    // Every task runs and every channel lands once per instance, so the
    // trace holds exactly this many events.
    obs::ensure_traceable(graph_, platform_, "simulate");
    std::size_t per_instance = graph_.task_count();
    for (const PeState& pe : pes_) per_instance += pe.channels.size();
    trace_.reserve(opt_.instances * per_instance);
  }

  completion_ticks_.assign(opt_.instances, 0.0);
  done_count_ = 0;
  tasks_at_done_ = static_cast<std::int64_t>(graph_.task_count());
}

void Simulator::wake(PeId pe) {
  PeState& state = pes_[pe];
  if (state.busy || state.wake_scheduled) return;
  state.wake_scheduled = true;
  state.wake_event = engine_.schedule_in(0.0, [this, pe] {
    pes_[pe].wake_scheduled = false;
    step(pe);
  });
}

void Simulator::step(PeId pe) {
  PeState& state = pes_[pe];
  if (state.busy) return;

  // Communication phase: initiate one eligible transfer (issuing a DMA
  // interrupts the core briefly; the transfer itself then proceeds in the
  // background through the flow network).
  if (const std::optional<std::size_t> index = find_issuable(pe)) {
    const Channel& channel = state.channels[*index];
    state.busy = true;
    state.busy_tag = kTagIssue |
                     (static_cast<std::uint64_t>(channel.kind) << 32) |
                     static_cast<std::uint64_t>(channel.index);
    state.busy_event =
        engine_.schedule_in(dma_issue_ticks_, [this, pe, i = *index] {
          PeState& s = pes_[pe];
          s.busy = false;
          s.busy_tag = 0;
          ++s.issue_attempts;
          // Re-validate before enqueueing: between the decision and the
          // end of the issue overhead another PE may have consumed the
          // last shared queue slot (two PPEs racing for one SPE's 8-deep
          // proxy stack).  The core still paid the interruption; it
          // simply retries.
          if (check_picks_) {
            ++picks_checked_;
            CS_ASSERT((s.ready[i] != 0) == channel_issuable(pe, s.channels[i]),
                      "simulate: readiness flag differs from the channel");
          }
          if (s.ready[i]) issue(pe, i);
          step(pe);
        });
    return;
  }

  // Computation phase: process one instance of a runnable task.  Injected
  // faults (slowdown windows, one-shot hangs) stretch the busy period; the
  // extra time is recorded as overhead, never as work, so the occupation
  // cross-check (I7/I9) keeps comparing nominal work against the model.
  if (const std::optional<TaskId> task = find_runnable(pe)) {
    double injected = 0.0;
    if (injector_) {
      const TaskState& ts = tasks_[*task];
      const std::int64_t gi = ts.next_instance + opt_.instance_offset;
      const double slow = (injector_->compute_factor(pe, gi) - 1.0) * ts.work;
      if (slow > 0.0) {
        injected += slow;
        faults_.slowdown_seconds += slow;
      }
      const std::size_t hang = injector_->hang_index(pe, gi);
      if (hang != fault::FaultInjector::npos && !hang_fired_[hang]) {
        hang_fired_[hang] = 1;
        const double stall = injector_->hang_seconds(hang);
        injected += stall;
        ++faults_.hangs;
        faults_.hang_seconds += stall;
      }
    }
    const double injected_ticks = to_ticks(injected, "injected fault stall");
    const double duration =
        dispatch_ticks_ + tasks_[*task].work_ticks + injected_ticks;
    state.busy = true;
    state.busy_tag = kTagCompute | static_cast<std::uint64_t>(*task);
    state.busy_event = engine_.schedule_in(
        duration, [this, pe, t = *task, injected, injected_ticks] {
          PeState& s = pes_[pe];
          s.busy = false;
          s.busy_tag = 0;
          s.injected_seconds += injected;
          if (opt_.record_trace) {
            obs::TraceEvent ev;
            ev.kind = obs::TraceEvent::Kind::kCompute;
            ev.pe = static_cast<std::uint16_t>(pe);
            ev.src_pe = ev.pe;
            ev.instance = tasks_[t].next_instance;
            ev.task = static_cast<std::int32_t>(t);
            // The window covers the whole processing of the instance,
            // injected stall included, so per-PE windows never overlap
            // (I6).
            record(ev, engine_.now() - tasks_[t].work_ticks - injected_ticks);
          }
          complete_instance(t);
          step(pe);
        });
    return;
  }
  // Nothing to do: stay idle until an event wakes us.
}

bool Simulator::channel_issuable(PeId pe, const Channel& channel) const {
  const std::int64_t next = stream(channel).issued;
  switch (channel.kind) {
    case Channel::Kind::kEdgeFetch: {
      const EdgeState& e = edges_[channel.index];
      if (next >= e.produced) return false;  // nothing new
      if (!dataflow::has_free_slot(next, e.consumed, e.depth)) {
        return false;  // in-buf full
      }
      break;
    }
    case Channel::Kind::kMemRead:
      if (next >= stream_len()) return false;  // stream exhausted
      if (next - tasks_[channel.index].next_instance >= kMemoryStreamDepth) {
        return false;
      }
      break;
    case Channel::Kind::kMemWrite:
      if (next >= tasks_[channel.index].next_instance) return false;  // no data
      break;
  }
  // A SPE issues into its own MFC queue; a PPE reading from a SPE local
  // store uses that SPE's proxy stack.
  if (platform_.is_spe(pe)) {
    return pes_[pe].gets_outstanding < platform_.spe_dma_slots;
  }
  const std::optional<PeId> proxy = proxy_of(pe, channel);
  return !proxy ||
         pes_[*proxy].proxy_outstanding < platform_.ppe_to_spe_dma_slots;
}

void Simulator::refresh(PeId pe, std::size_t index) {
  PeState& state = pes_[pe];
  const char now = channel_issuable(pe, state.channels[index]) ? 1 : 0;
  if (now == state.ready[index]) return;
  state.ready[index] = now;
  if (now) {
    ++state.ready_count;
  } else {
    --state.ready_count;
  }
}

void Simulator::refresh_all(PeId pe) {
  for (std::size_t i = 0; i < pes_[pe].channels.size(); ++i) refresh(pe, i);
}

void Simulator::refresh_proxy_readers(PeId spe) {
  for (const auto& [ppe, index] : pes_[spe].proxy_readers) refresh(ppe, index);
}

std::optional<std::size_t> Simulator::find_issuable(PeId pe) {
  PeState& state = pes_[pe];
  std::optional<std::size_t> pick;
  if (state.ready_count > 0) {
    const std::size_t count = state.channels.size();
    for (std::size_t probe = 0; probe < count; ++probe) {
      const std::size_t idx = (state.channel_cursor + probe) % count;
      if (state.ready[idx]) {
        pick = idx;
        break;
      }
    }
  }
  if (check_picks_) {
    ++picks_checked_;
    CS_ASSERT(pick == scan_issuable(pe),
              "simulate: readiness picked another channel than the scan");
  }
  if (pick) state.channel_cursor = (*pick + 1) % state.channels.size();
  return pick;
}

std::optional<std::size_t> Simulator::scan_issuable(PeId pe) const {
  const PeState& state = pes_[pe];
  const std::size_t count = state.channels.size();
  for (std::size_t probe = 0; probe < count; ++probe) {
    const std::size_t idx = (state.channel_cursor + probe) % count;
    if (channel_issuable(pe, state.channels[idx])) return idx;
  }
  return std::nullopt;
}

std::uint32_t Simulator::alloc_inflight(const InflightSlot& dma) {
  std::uint32_t slot;
  if (!islot_free_.empty()) {
    slot = islot_free_.back();
    islot_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(islots_.size());
    islots_.emplace_back();
  }
  islots_[slot] = dma;
  return slot;
}

InflightSlot Simulator::finish_inflight(std::uint32_t slot) {
  // The set is tiny (bounded by the DMA queue depths).
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if (it->second == slot) {
      inflight_.erase(it);
      islot_free_.push_back(slot);
      return islots_[slot];
    }
  }
  CS_ASSERT(false, "simulate: completed transfer was never registered");
  return {};
}

const InflightSlot* Simulator::find_inflight(des::TransferId id) const {
  const auto it = std::lower_bound(
      inflight_.begin(), inflight_.end(), id,
      [](const auto& entry, des::TransferId v) { return entry.first < v; });
  if (it == inflight_.end() || it->first != id) return nullptr;
  return &islots_[it->second];
}

void Simulator::issue(PeId pe, std::size_t index) {
  const Channel channel = pes_[pe].channels[index];
  const auto occupy = [](std::size_t& outstanding, std::size_t& peak) {
    ++outstanding;
    peak = std::max(peak, outstanding);
  };
  const std::int64_t inst = stream(channel).issued++;
  refresh(pe, index);
  // A queue's occupancy changes a channel's readiness only where it
  // reaches its limit (and where it drops from it, in land()).
  if (platform_.is_spe(pe)) {
    occupy(pes_[pe].gets_outstanding, pes_[pe].mfc_peak);
    if (pes_[pe].gets_outstanding == platform_.spe_dma_slots) {
      refresh_all(pe);
    }
  }
  if (const std::optional<PeId> proxy = proxy_of(pe, channel)) {
    occupy(pes_[*proxy].proxy_outstanding, pes_[*proxy].proxy_peak);
    if (pes_[*proxy].proxy_outstanding == platform_.ppe_to_spe_dma_slots) {
      refresh_proxy_readers(*proxy);
    }
  }
  const std::uint32_t slot =
      alloc_inflight({channel, pe, engine_.now(), inst});
  // A failed DMA attempt holds its queue slot through the seeded
  // retry/backoff delay, then the transfer proceeds normally — data is
  // delayed, never lost.  The trace window [t0, end] spans the stall,
  // matching the slot-occupancy convention the I4 replay checks.
  using Kind = fault::FaultInjector::TransferKind;
  static constexpr Kind kTransferKind[] = {  // indexed by Channel::Kind
      Kind::kEdge, Kind::kMemRead, Kind::kMemWrite};
  const double stall =
      injector_ ? injector_->dma_delay(
                      kTransferKind[static_cast<int>(channel.kind)],
                      channel.index, inst + opt_.instance_offset,
                      &faults_.dma_retries)
                : 0.0;
  if (stall > 0.0) {
    faults_.backoff_seconds += stall;
    engine_.schedule_in(to_ticks(stall, "dma retry stall"),
                        [this, slot] { launch(slot); });
  } else {
    launch(slot);
  }
}

void Simulator::launch(std::uint32_t slot) {
  const Channel ch = islots_[slot].channel;
  const PeId pe = islots_[slot].issuer;
  des::InlineAction done = [this, slot] { land(slot); };
  des::TransferId id = 0;
  switch (ch.kind) {
    case Channel::Kind::kEdgeFetch:
      id = start_edge_transfer(edges_[ch.index], pe, std::move(done));
      break;
    case Channel::Kind::kMemRead:
      id = net_.start_transfer(memory_node(), pe, tasks_[ch.index].read_bytes,
                               std::move(done));
      break;
    case Channel::Kind::kMemWrite:
      id = net_.start_transfer(pe, memory_node(), tasks_[ch.index].write_bytes,
                               std::move(done));
      break;
  }
  inflight_.emplace_back(id, slot);
}

void Simulator::land(std::uint32_t slot) {
  const InflightSlot dma = finish_inflight(slot);
  const Channel& ch = dma.channel;
  stream(ch).land(dma.inst);
  if (platform_.is_spe(dma.issuer) &&
      pes_[dma.issuer].gets_outstanding-- == platform_.spe_dma_slots) {
    refresh_all(dma.issuer);
  }
  const std::optional<PeId> proxy = proxy_of(dma.issuer, ch);
  if (proxy &&
      pes_[*proxy].proxy_outstanding-- == platform_.ppe_to_spe_dma_slots) {
    refresh_proxy_readers(*proxy);
  }
  if (opt_.record_trace) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEvent::Kind::kTransfer;
    ev.pe = static_cast<std::uint16_t>(dma.issuer);
    ev.src_pe = ev.pe;
    ev.instance = dma.inst;
    switch (ch.kind) {
      case Channel::Kind::kEdgeFetch:
        ev.payload = obs::TraceEvent::Payload::kEdge;
        ev.src_pe = static_cast<std::uint16_t>(edges_[ch.index].src);
        ev.edge = static_cast<std::int32_t>(ch.index);
        break;
      case Channel::Kind::kMemRead:
        ev.payload = obs::TraceEvent::Payload::kMemRead;
        ev.task = static_cast<std::int32_t>(ch.index);
        break;
      case Channel::Kind::kMemWrite:
        ev.payload = obs::TraceEvent::Payload::kMemWrite;
        ev.task = static_cast<std::int32_t>(ch.index);
        break;
    }
    record(ev, dma.t0);
  }
  if (ch.kind == Channel::Kind::kEdgeFetch) {
    wake(edges_[ch.index].src);  // output buffer slot freed
  }
  wake(dma.issuer);  // data landed, or a queue slot freed
}

bool Simulator::task_runnable(TaskId tid) const {
  const TaskState& t = tasks_[tid];
  const std::int64_t i = t.next_instance;
  if (i >= stream_len()) return false;

  // Inputs: instance i plus up to peek following ones (clamped at the end
  // of the stream, where no further instances exist).
  const std::int64_t need = dataflow::inputs_needed(i, t.peek, stream_len());
  for (EdgeId e : graph_.in_edges(tid)) {
    const EdgeState& edge = edges_[e];
    const std::int64_t available =
        edge.remote ? edge.fetch.frontier : edge.produced;
    if (available < need) return false;
  }
  if (t.read_bytes > 0.0 && t.read.frontier < i + 1) return false;

  // Output buffers: one free slot per out-edge (producer side frees on
  // remote fetch / local consumption).
  for (EdgeId e : graph_.out_edges(tid)) {
    const EdgeState& edge = edges_[e];
    const std::int64_t freed =
        edge.remote ? edge.fetch.frontier : edge.consumed;
    if (!dataflow::has_free_slot(edge.produced, freed, edge.depth)) {
      return false;
    }
  }
  if (t.write_bytes > 0.0 && i - t.write.landed() >= kMemoryStreamDepth) {
    return false;
  }
  return true;
}

std::optional<TaskId> Simulator::find_runnable(PeId pe) {
  PeState& state = pes_[pe];
  const std::size_t count = state.tasks.size();
  for (std::size_t probe = 0; probe < count; ++probe) {
    const std::size_t idx = (state.task_cursor + probe) % count;
    if (task_runnable(state.tasks[idx])) {
      state.task_cursor = (idx + 1) % count;
      return state.tasks[idx];
    }
  }
  return std::nullopt;
}

void Simulator::complete_instance(TaskId tid) {
  TaskState& t = tasks_[tid];
  const std::int64_t i = t.next_instance;
  t.next_instance = i + 1;
  if (t.read_bytes > 0.0) refresh(t.pe, t.read_channel);
  if (t.write_bytes > 0.0) refresh(t.pe, t.write_channel);

  for (EdgeId e : graph_.out_edges(tid)) {
    EdgeState& edge = edges_[e];
    ++edge.produced;
    if (edge.remote) {
      refresh(edge.dst, edge.fetch_channel);
      wake(edge.dst);  // consumer may fetch now
    }
  }
  for (EdgeId e : graph_.in_edges(tid)) {
    EdgeState& edge = edges_[e];
    edge.consumed = i + 1;  // instances <= i are no longer needed
    if (edge.remote) refresh(edge.dst, edge.fetch_channel);
  }
  advance_done_counter(i);
  maybe_snapshot(tid);
}

void Simulator::record(obs::TraceEvent ev, double start_tick) {
  ev.start = start_tick;  // ticks until run() converts the trace
  ev.end = engine_.now();
  trace_.push_back(ev);
}

void Simulator::advance_done_counter(std::int64_t completed_instance) {
  // Only tasks crossing the current frontier move the done counter.
  if (completed_instance != done_count_) return;
  --tasks_at_done_;
  while (tasks_at_done_ == 0) {
    completion_ticks_[done_count_] = engine_.now();
    ++done_count_;
    if (done_count_ >= stream_len()) return;
    tasks_at_done_ = 0;
    for (const TaskState& t : tasks_) {
      if (t.next_instance == done_count_) ++tasks_at_done_;
    }
  }
}

// ---------------------------------------------------------------------------
// Steady-state fast-forward.
//
// After each completed stream instance the simulator captures a relative
// *signature* of the entire scheduler state: all counters expressed
// relative to the done counter, every pending event's behavior tag,
// relative fire time and tie-break order, and every in-flight transfer's
// exact remaining-bytes/rate bit patterns (and, on a traced run, its
// issue tick).  Because event times live on an exact integer grid and the
// flow network recomputes rates in a deterministic order, two equal
// signatures prove the future evolution of the run is identical up to a
// translation by (Δdone, Δticks).  The run then jumps k periods: clocks
// and counters shift, completion times of skipped instances are
// reconstructed by the same recurrence the full run would have produced
// (exact integer arithmetic), a traced run appends the detected cycle's
// events k times, translated on the tick grid, and per-run totals are
// derived from counters at the end — so the final stats and the trace are
// bit-identical to the full simulation (differential rule D6).
// ---------------------------------------------------------------------------

void Simulator::maybe_snapshot(TaskId completing_task) {
  if (!ff_enabled_ || ff_done_) return;
  if (done_count_ <= last_snapshot_done_) return;  // no new instance boundary
  last_snapshot_done_ = done_count_;
  if (done_count_ >= stream_len()) return;
  if (done_count_ > kDetectLimit) {
    // Aperiodic (or a period beyond the window): stop paying for detection.
    stop_detection();
    return;
  }
  if (!build_signature(sig_scratch_, completing_task)) return;
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over the words
  for (std::uint64_t w : sig_scratch_) {
    hash ^= w;
    hash *= 1099511628211ull;
  }
  for (const Snapshot& snap : snapshots_) {
    if (snap.hash == hash && snap.sig == sig_scratch_) {
      engage_fast_forward(snap);
      return;
    }
  }
  if (snapshots_.size() >= kSnapshotWindow) {
    snapshots_.erase(snapshots_.begin());
  }
  Snapshot snap;
  snap.hash = hash;
  snap.sig = sig_scratch_;
  snap.done = done_count_;
  snap.tick = engine_.now();
  snap.attempts.reserve(pes_.size());
  for (const PeState& p : pes_) snap.attempts.push_back(p.issue_attempts);
  snap.trace_size = trace_.size();
  snapshots_.push_back(std::move(snap));
}

bool Simulator::build_signature(std::vector<std::uint64_t>& sig,
                                TaskId completing) {
  sig.clear();
  const double now_tick = engine_.now();
  const std::int64_t d = done_count_;
  const auto push = [&sig](std::uint64_t v) { sig.push_back(v); };
  const auto push_i = [&push](std::int64_t v) {
    push(static_cast<std::uint64_t>(v));
  };
  const auto push_bits = [&push](double v) {
    push(std::bit_cast<std::uint64_t>(v));
  };

  // Control-flow context: we are inside `completing`'s finish event; the
  // task id determines the PE whose step() runs next.
  push_i(static_cast<std::int64_t>(completing));
  push_i(tasks_at_done_);

  // Advancing counters are encoded relative to the done counter (their
  // offsets recur in the steady state), pinned ones absolutely.
  visit_progress(Overloaded{
      [&](std::int64_t v, Progress p) {
        push_i(p == Progress::kAdvancing ? v - d : v);
      },
      [&](const LandingSet& landed) {
        push_i(static_cast<std::int64_t>(landed.size()));
        landed.for_each([&](std::int64_t v) { push_i(v - d); });
      }});
  for (const PeState& p : pes_) p.visit(push);

  // Pending engine events: behavior tag, relative fire tick, and their
  // mutual (seq) order.  Every event the simulator can have in flight is
  // attributed here; if the count disagrees with the engine some event
  // escaped the model (e.g. a fault stall) and no snapshot is taken.
  struct Ev {
    std::uint64_t seq;
    std::uint64_t tag;
    std::int64_t dt;
  };
  std::vector<Ev> events;
  events.reserve(pes_.size() * 2 + 1);
  for (PeId pe = 0; pe < pes_.size(); ++pe) {
    const PeState& p = pes_[pe];
    if (p.busy) {
      events.push_back({engine_.sequence_of(p.busy_event), p.busy_tag,
                        tick_delta(engine_.time_of(p.busy_event), now_tick)});
    }
    if (p.wake_scheduled) {
      events.push_back({engine_.sequence_of(p.wake_event),
                        kTagWake | static_cast<std::uint64_t>(pe), 0});
    }
  }
  if (net_.completion_pending()) {
    events.push_back(
        {engine_.sequence_of(net_.completion_event()), kTagFlowCompletion,
         tick_delta(engine_.time_of(net_.completion_event()), now_tick)});
  }
  if (events.size() != engine_.pending()) return false;
  std::sort(events.begin(), events.end(),
            [](const Ev& a, const Ev& b) { return a.seq < b.seq; });
  for (const Ev& ev : events) {
    push(ev.tag);
    push_i(ev.dt);
  }

  // Active flows in start order: relative identity plus the exact
  // remaining/rate bit patterns (as of the network's last progress
  // point, whose offset from now is appended below).
  bool known = true;
  net_.for_each_active(
      [&](des::TransferId id, double remaining, double rate) {
        const InflightSlot* tag = find_inflight(id);
        if (tag == nullptr) {
          known = false;
          return;
        }
        push((static_cast<std::uint64_t>(tag->channel.kind) << 32) |
             tag->channel.index);
        push_i(tag->inst - d);
        // A DMA's issue tick shows only in its trace event, where it
        // opens the queue window: a traced state includes it.
        if (opt_.record_trace) push_i(tick_delta(now_tick, tag->t0));
        push_bits(remaining);
        push_bits(rate);
      });
  if (!known) return false;
  push_i(tick_delta(now_tick, net_.last_progress_time()));
  return true;
}

void Simulator::engage_fast_forward(const Snapshot& snap) {
  const std::int64_t cycle_d = done_count_ - snap.done;
  const double cycle_t = engine_.now() - snap.tick;
  // A zero-tick cycle (a stream of zero-duration work) translates like
  // any other: the jump shifts counters and leaves the clock put.
  CS_ASSERT(cycle_d > 0, "fast-forward: degenerate cycle");
  ff_info_.cycle_instances = cycle_d;
  ff_info_.cycle_seconds = cycle_t * kSecondsPerTick;
  // Cross-check against the analytic steady state: the observed period
  // can never beat the model's bound (rule D6 asserts ratio >= ~1).
  const double model_period = ss_.period(mapping_);
  ff_info_.model_period = model_period;
  ff_info_.period_ratio =
      model_period > 0.0
          ? (cycle_t * kSecondsPerTick / static_cast<double>(cycle_d)) /
                model_period
          : 0.0;

  // How many whole cycles fit before any counter's comparisons against
  // the stream end change truth value?  Leave one cycle plus the peek and
  // memory-stream lookahead as margin, so the post-jump run re-enters
  // ordinary (still periodic) simulation well before the drain begins.
  const std::int64_t margin = cycle_d + max_peek_ + 1 + kMemoryStreamDepth + 1;
  std::int64_t lead = 0;  // the furthest advancing counter
  visit_progress(Overloaded{
      [&](std::int64_t v, Progress p) {
        if (p == Progress::kAdvancing) lead = std::max(lead, v);
      },
      [](const LandingSet&) {}});
  const std::int64_t k = (stream_len() - margin - lead) / cycle_d;
  if (k <= 0) {  // stream too short for a safe jump
    stop_detection();
    return;
  }

  const std::int64_t skipped = k * cycle_d;
  const double shift = static_cast<double>(k) * cycle_t;
  engine_.shift_time(shift);
  net_.on_time_shift(shift);
  // Translate exactly the counters the signature encodes done-relative;
  // pinned ones stay put, as they would in the full run.
  visit_progress(Overloaded{
      [&](std::int64_t& v, Progress p) {
        if (p == Progress::kAdvancing) v += skipped;
      },
      [&](LandingSet& landed) { landed.shift(skipped); }});
  for (PeId pe = 0; pe < pes_.size(); ++pe) {
    const std::uint64_t per_cycle =
        pes_[pe].issue_attempts - snap.attempts[pe];
    pes_[pe].issue_attempts += static_cast<std::uint64_t>(k) * per_cycle;
  }
  // Pending transfer completions read their instance and issue tick
  // through the slot slab, so shifting here also shifts what they will
  // land and the queue window they will trace.
  for (const auto& [id, slot] : inflight_) {
    islots_[slot].inst += skipped;
    islots_[slot].t0 += shift;
  }
  // Readiness reads differences of translated counters, and `issued` <
  // stream length, which the margin keeps; re-derive it all the same, so
  // it does not hinge on the margin.
  for (PeId pe = 0; pe < pes_.size(); ++pe) refresh_all(pe);

  // Completion times of the skipped instances obey the same recurrence
  // the full run would have produced; the additions are exact (integer-
  // valued doubles), so the reconstructed values are bit-identical.
  const std::int64_t old_done = done_count_;
  done_count_ += skipped;
  for (std::int64_t m = old_done; m < old_done + skipped; ++m) {
    completion_ticks_[m] = completion_ticks_[m - cycle_d] + cycle_t;
  }

  // The skipped cycles' trace: cycle c = 1..k emits the events the run
  // emitted since the snapshot, c cycles later in instances and ticks.
  // The trace still holds ticks, and run() converts every event once, so
  // each event is the full run's, bit for bit.
  if (opt_.record_trace) {
    const std::size_t cycle_end = trace_.size();
    for (std::int64_t c = 1; c <= k; ++c) {
      const double dt = static_cast<double>(c) * cycle_t;
      for (std::size_t i = snap.trace_size; i < cycle_end; ++i) {
        obs::TraceEvent ev = trace_[i];
        ev.start += dt;
        ev.end += dt;
        ev.instance += c * cycle_d;
        trace_.push_back(ev);
      }
    }
  }

  ff_info_.engaged = true;
  ff_info_.skipped_cycles = k;
  ff_info_.skipped_instances = skipped;
  stop_detection();  // one jump covers the whole steady state
}

void Simulator::stop_detection() {
  ff_done_ = true;
  snapshots_.clear();
  snapshots_.shrink_to_fit();
}

SimResult Simulator::run() {
  for (PeId pe = 0; pe < platform_.pe_count(); ++pe) wake(pe);
  engine_.run_until(max_ticks_);
  CS_ENSURE(done_count_ >= stream_len(),
            "simulate: stream did not finish within " +
                format_number(opt_.max_simulated_seconds) +
                " simulated seconds (" + std::to_string(done_count_) + "/" +
                std::to_string(stream_len()) + " instances done) — " +
                "deadlock or overload");

  SimResult result;
  result.completion_times.resize(opt_.instances);
  for (std::size_t i = 0; i < opt_.instances; ++i) {
    result.completion_times[i] = completion_ticks_[i] * kSecondsPerTick;
  }
  result.makespan = result.completion_times.back();

  // Telemetry is derived from the integer progress counters in one fixed
  // pass (task order, then edge order), never accumulated per event —
  // the totals therefore do not depend on how many events actually
  // executed, which is what makes fast-forwarded stats bit-identical.
  obs::Counters& counters = result.counters;
  counters.domain = obs::TimeDomain::kSimulated;
  counters.pe.resize(platform_.pe_count());
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const TaskState& ts = tasks_[t];
    obs::PeCounters& c = counters.pe[ts.pe];
    const double executed = static_cast<double>(ts.next_instance);
    c.tasks_executed += static_cast<std::uint64_t>(ts.next_instance);
    c.compute_seconds += executed * ts.work;
    c.overhead_seconds += executed * opt_.dispatch_overhead;
    if (ts.read_bytes > 0.0) {
      c.bytes_in += static_cast<double>(ts.read.landed()) * ts.read_bytes;
      c.transfers_issued += static_cast<std::uint64_t>(ts.read.issued);
    }
    if (ts.write_bytes > 0.0) {
      c.bytes_out += static_cast<double>(ts.write.landed()) * ts.write_bytes;
      c.transfers_issued += static_cast<std::uint64_t>(ts.write.issued);
    }
  }
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const EdgeState& es = edges_[e];
    if (!es.remote) continue;
    // Interface accounting: a remote edge crosses the producer's out
    // interface and the consumer's in interface (constraints 1e/1f);
    // bytes count per completed landing, frontier-contiguous or not.
    const double landed = static_cast<double>(es.fetch.landed());
    counters.pe[es.src].bytes_out += landed * es.bytes;
    counters.pe[es.dst].bytes_in += landed * es.bytes;
    counters.pe[es.dst].transfers_issued +=
        static_cast<std::uint64_t>(es.fetch.issued);
  }
  for (PeId pe = 0; pe < platform_.pe_count(); ++pe) {
    const PeState& p = pes_[pe];
    obs::PeCounters& c = counters.pe[pe];
    c.overhead_seconds +=
        static_cast<double>(p.issue_attempts) * opt_.dma_issue_overhead +
        p.injected_seconds;
    c.mfc_queue_peak = p.mfc_peak;
    c.proxy_queue_peak = p.proxy_peak;
  }
  counters.instance_completion = result.completion_times;
  counters.elapsed_seconds = result.makespan;
  result.steady_throughput = counters.steady_throughput();
  result.dma_transfers = counters.total_transfers();
  for (obs::TraceEvent& ev : trace_) {
    ev.start *= kSecondsPerTick;
    ev.end *= kSecondsPerTick;
  }
  result.trace = std::move(trace_);
  result.faults = faults_;
  result.edge_produced.resize(graph_.edge_count());
  result.edge_delivered.resize(graph_.edge_count());
  for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
    result.edge_produced[e] = edges_[e].produced;
    result.edge_delivered[e] =
        edges_[e].remote ? edges_[e].fetch.frontier : edges_[e].produced;
  }
  result.fast_forward = ff_info_;
  return result;
}

}  // namespace

SimResult simulate(const SteadyStateAnalysis& analysis, const Mapping& mapping,
                   const SimOptions& options) {
  Simulator simulator(analysis, mapping, options);
  return simulator.run();
}

namespace detail {

SimResult simulate_checking_picks(const SteadyStateAnalysis& analysis,
                                  const Mapping& mapping,
                                  const SimOptions& options,
                                  std::uint64_t& picks_checked) {
  Simulator simulator(analysis, mapping, options);
  simulator.check_picks();
  SimResult result = simulator.run();
  picks_checked = simulator.picks_checked();
  return result;
}

}  // namespace detail

}  // namespace cellstream::sim
