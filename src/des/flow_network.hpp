#pragma once
// Flow-level model of the bounded-multiport communication model
// (paper Section 2.1), generalized to arbitrary shared resources.
//
// Every node has an outgoing and an incoming port with fixed capacity in
// bytes/s (infinite for main memory: the Cell's memory controller is not
// the bottleneck in the paper's model — only the PE interfaces are).
// Additional resources (e.g. the cross-chip BIF link of a dual-Cell QS22)
// can be registered and attached to transfers.  Concurrent transfers
// share every resource they touch max-min fairly, the fluid analogue of
// "all communications of a period happen simultaneously as long as
// average bandwidth per interface is respected".  Rates are recomputed
// whenever a transfer starts or finishes.
//
// Flows live in a flat vector kept sorted by (monotone) transfer id, so
// rate recomputation visits them in a deterministic order: repeating the
// same relative flow state reproduces bit-identical rates, which the
// simulator's steady-state fast-forward relies on (docs/PERFORMANCE.md).
//
// The per-transfer path allocates nothing once the network has seen its
// peak flow count: a flow holds its (at most four) resources inline, and
// the progressive filling and the completion callbacks reuse member
// scratch vectors (docs/PERFORMANCE.md §15).

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "des/engine.hpp"

namespace cellstream::des {

using TransferId = std::uint64_t;
using NodeId = std::size_t;
using ResourceId = std::size_t;

class FlowNetwork {
 public:
  /// `out_capacity[i]` / `in_capacity[i]` are node i's port bandwidths in
  /// bytes/s; use infinity() for unconstrained ports.
  FlowNetwork(Engine& engine, std::vector<double> out_capacity,
              std::vector<double> in_capacity);

  static double infinity() { return std::numeric_limits<double>::infinity(); }

  /// Register an extra shared resource (a link); returns its id for use
  /// with the resource-list start_transfer overload.
  ResourceId add_resource(double capacity);

  /// The out/in port resource ids of a node (for composing resource
  /// lists).
  ResourceId out_port(NodeId node) const;
  ResourceId in_port(NodeId node) const;

  /// Round every scheduled completion delay up to a multiple of `quantum`
  /// engine-time units (0 disables).  The simulator sets its tick size so
  /// all event times stay on an exactly-representable integer grid.
  void set_time_quantum(double quantum);

  /// Begin moving `bytes` from `src` to `dst`; `on_complete` fires (via
  /// the engine) when the last byte arrives.  Zero-byte transfers complete
  /// at the current time (still asynchronously).
  TransferId start_transfer(NodeId src, NodeId dst, double bytes,
                            InlineAction on_complete);

  /// The most resources one transfer may cross: its out port, the two
  /// cross-chip link resources and its in port.
  static constexpr std::size_t kMaxResources = 4;

  /// Begin a transfer constrained by an explicit set of at most
  /// kMaxResources resources (e.g. {out_port(src), cross_chip_link,
  /// in_port(dst)}).
  TransferId start_transfer_over(std::initializer_list<ResourceId> resources,
                                 double bytes, InlineAction on_complete);

  /// Current fair-share rate of a transfer (bytes/s); 0 if unknown id.
  double current_rate(TransferId id) const;

  /// Max-min fair allocations computed so far: one per transfer start
  /// and one per completion event.
  std::uint64_t recomputations() const { return recomputations_; }

  // -- Fast-forward introspection / translation --------------------------
  /// Engine time at which flow progress was last materialized; remaining
  /// bytes reported by for_each_active are as of this instant.
  Time last_progress_time() const { return last_progress_; }
  /// The single pending completion event, if any (its engine sequence
  /// number orders it against other pending events).
  bool completion_pending() const { return completion_pending_; }
  EventId completion_event() const { return completion_event_; }
  /// Visit active flows in ascending id (= start) order:
  /// fn(id, remaining_bytes_at_last_progress, rate).
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (const Flow& flow : flows_) fn(flow.id, flow.remaining, flow.rate);
  }
  /// Clock-translation hook mirroring Engine::shift_time: the engine has
  /// moved every pending event (including our completion event) forward
  /// by `delta`; flow progress bookkeeping must follow.
  void on_time_shift(Time delta) { last_progress_ += delta; }

 private:
  struct Flow {
    TransferId id;
    std::array<ResourceId, kMaxResources> resource_slots;
    std::size_t resource_count;
    double remaining;
    double rate = 0.0;
    InlineAction on_complete;

    std::span<const ResourceId> resources() const {
      return {resource_slots.data(), resource_count};
    }
  };

  const Flow* find(TransferId id) const;
  void advance_progress();   // apply elapsed time at current rates
  void recompute_rates();    // max-min fair allocation
  void schedule_completion();
  void on_completion_event();

  Engine* engine_;
  std::size_t node_count_ = 0;
  std::vector<double> capacity_;  // per resource
  std::vector<Flow> flows_;       // sorted by id (ids issue monotonically)
  TransferId next_id_ = 1;
  double quantum_ = 0.0;
  Time last_progress_ = 0.0;
  EventId completion_event_ = 0;
  bool completion_pending_ = false;
  std::uint64_t recomputations_ = 0;
  // Scratch reused by every call, so the per-transfer path allocates
  // nothing in the steady state.
  std::vector<double> left_;        // recompute_rates: unallocated capacity
  std::vector<std::size_t> count_;  // recompute_rates: open flows per resource
  std::vector<Flow*> open_, still_open_;
  std::vector<InlineAction> callbacks_;  // on_completion_event
};

}  // namespace cellstream::des
