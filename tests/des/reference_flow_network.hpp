#pragma once
// Test-local reference: des::FlowNetwork as it was before its per-transfer
// path became allocation-free — each flow holds its resources in a
// std::vector, recompute_rates() allocates its `left`, `count`, `open`
// and per-round `still_open` vectors, and each completion builds a fresh
// callback list.  It is kept only to check the flow layer against
// (tests/des/flow_network_equivalence_test.cpp): same rates and
// completion times, bit for bit.  Nothing in src/ uses it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "des/engine.hpp"

namespace cellstream::reference {

using des::Engine;
using des::EventId;
using des::InlineAction;
using des::NodeId;
using des::ResourceId;
using des::Time;
using des::TransferId;

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

  /// Begin a transfer constrained by an explicit set of resources (e.g.
  /// {out_port(src), cross_chip_link, in_port(dst)}).
  TransferId start_transfer_over(std::vector<ResourceId> resources,
                                 double bytes, InlineAction on_complete);

  /// Current fair-share rate of a transfer (bytes/s); 0 if unknown id.
  double current_rate(TransferId id) const;

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
    std::vector<ResourceId> resources;
    double remaining;
    double rate = 0.0;
    InlineAction on_complete;
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
};


// Relative slack below which a transfer counts as finished (absorbs the
// floating-point drift of repeated progress updates).
inline constexpr double kFinishSlack = 1e-9;

inline FlowNetwork::FlowNetwork(Engine& engine,
                                std::vector<double> out_capacity,
                                std::vector<double> in_capacity)
    : engine_(&engine) {
  CS_ENSURE(out_capacity.size() == in_capacity.size(),
            "FlowNetwork: capacity vectors differ in size");
  node_count_ = out_capacity.size();
  capacity_.reserve(2 * node_count_);
  for (double c : out_capacity) {
    CS_ENSURE(c > 0.0, "FlowNetwork: non-positive port capacity");
    capacity_.push_back(c);
  }
  for (double c : in_capacity) {
    CS_ENSURE(c > 0.0, "FlowNetwork: non-positive port capacity");
    capacity_.push_back(c);
  }
  last_progress_ = engine.now();
}

inline ResourceId FlowNetwork::add_resource(double capacity) {
  CS_ENSURE(capacity > 0.0, "add_resource: non-positive capacity");
  capacity_.push_back(capacity);
  return capacity_.size() - 1;
}

inline ResourceId FlowNetwork::out_port(NodeId node) const {
  CS_ENSURE(node < node_count_, "out_port: unknown node");
  return node;
}

inline ResourceId FlowNetwork::in_port(NodeId node) const {
  CS_ENSURE(node < node_count_, "in_port: unknown node");
  return node_count_ + node;
}

inline void FlowNetwork::set_time_quantum(double quantum) {
  CS_ENSURE(quantum >= 0.0 && std::isfinite(quantum),
            "set_time_quantum: bad quantum");
  quantum_ = quantum;
}

inline TransferId FlowNetwork::start_transfer(NodeId src, NodeId dst,
                                              double bytes,
                                              InlineAction on_complete) {
  CS_ENSURE(src < node_count_ && dst < node_count_,
            "start_transfer: unknown node");
  CS_ENSURE(src != dst, "start_transfer: src == dst needs no transfer");
  return start_transfer_over({out_port(src), in_port(dst)}, bytes,
                             std::move(on_complete));
}

inline TransferId FlowNetwork::start_transfer_over(
    std::vector<ResourceId> resources, double bytes,
    InlineAction on_complete) {
  CS_ENSURE(bytes >= 0.0, "start_transfer: negative size");
  for (ResourceId r : resources) {
    CS_ENSURE(r < capacity_.size(), "start_transfer: unknown resource");
  }
  advance_progress();
  const TransferId id = next_id_++;
  // Ids are issued monotonically, so appending keeps flows_ sorted.
  Flow flow;
  flow.id = id;
  flow.resources = std::move(resources);
  flow.remaining = bytes;
  flow.on_complete = std::move(on_complete);
  flows_.push_back(std::move(flow));
  recompute_rates();
  schedule_completion();
  return id;
}

inline const FlowNetwork::Flow* FlowNetwork::find(TransferId id) const {
  const auto it =
      std::lower_bound(flows_.begin(), flows_.end(), id,
                       [](const Flow& f, TransferId v) { return f.id < v; });
  if (it == flows_.end() || it->id != id) return nullptr;
  return &*it;
}

inline double FlowNetwork::current_rate(TransferId id) const {
  const Flow* flow = find(id);
  return flow == nullptr ? 0.0 : flow->rate;
}

inline void FlowNetwork::advance_progress() {
  const double elapsed = engine_->now() - last_progress_;
  if (elapsed > 0.0) {
    for (Flow& flow : flows_) {
      if (flow.rate > 0.0 && std::isfinite(flow.rate)) {
        flow.remaining = std::max(0.0, flow.remaining - flow.rate * elapsed);
      }
    }
  }
  last_progress_ = engine_->now();
}

inline void FlowNetwork::recompute_rates() {
  // Progressive filling: repeatedly saturate the resource with the
  // smallest fair share and freeze its flows at that rate.  flows_ is
  // visited in id order, so the arithmetic (and thus every resulting
  // rate bit pattern) depends only on the flow state, never on hashing.
  std::vector<double> left = capacity_;
  std::vector<std::size_t> count(capacity_.size(), 0);
  std::vector<Flow*> open;
  open.reserve(flows_.size());
  for (Flow& flow : flows_) {
    for (ResourceId r : flow.resources) ++count[r];
    open.push_back(&flow);
  }

  while (!open.empty()) {
    double fair = FlowNetwork::infinity();
    for (ResourceId r = 0; r < capacity_.size(); ++r) {
      if (count[r] > 0 && std::isfinite(left[r])) {
        fair = std::min(fair, left[r] / static_cast<double>(count[r]));
      }
    }
    if (!std::isfinite(fair)) {
      // Only infinite resources remain: those flows complete immediately.
      for (Flow* flow : open) flow->rate = FlowNetwork::infinity();
      break;
    }
    // Freeze every flow touching a resource now saturated at `fair`.
    std::vector<Flow*> still_open;
    bool froze_any = false;
    for (Flow* flow : open) {
      bool tight = false;
      for (ResourceId r : flow->resources) {
        if (std::isfinite(left[r]) &&
            left[r] / static_cast<double>(count[r]) <= fair * (1.0 + 1e-12)) {
          tight = true;
          break;
        }
      }
      if (tight) {
        flow->rate = fair;
        for (ResourceId r : flow->resources) {
          left[r] -= fair;
          --count[r];
        }
        froze_any = true;
      } else {
        still_open.push_back(flow);
      }
    }
    CS_ASSERT(froze_any, "progressive filling made no progress");
    open.swap(still_open);
  }
}

inline void FlowNetwork::schedule_completion() {
  if (completion_pending_) {
    engine_->cancel(completion_event_);
    completion_pending_ = false;
  }
  if (flows_.empty()) return;
  double dt = FlowNetwork::infinity();
  for (const Flow& flow : flows_) {
    if (flow.remaining <= kFinishSlack) {
      dt = 0.0;
      break;
    }
    if (flow.rate > 0.0) {
      dt = std::min(dt, std::isfinite(flow.rate) ? flow.remaining / flow.rate
                                                 : 0.0);
    }
  }
  CS_ASSERT(std::isfinite(dt), "active transfer with zero rate");
  if (quantum_ > 0.0 && dt > 0.0) {
    // Snap the completion onto the caller's time grid (rounding up: a
    // transfer is never reported complete before its last byte landed).
    dt = std::ceil(dt / quantum_) * quantum_;
  }
  completion_event_ =
      engine_->schedule_in(dt, [this] { on_completion_event(); });
  completion_pending_ = true;
}

inline void FlowNetwork::on_completion_event() {
  completion_pending_ = false;
  advance_progress();
  // Collect finished flows first: callbacks may start new transfers.
  std::vector<InlineAction> callbacks;
  std::erase_if(flows_, [&](Flow& flow) {
    const bool done =
        flow.remaining <= kFinishSlack ||
        (std::isfinite(flow.rate) && flow.rate > 0.0 &&
         flow.remaining / flow.rate <= kFinishSlack) ||
        !std::isfinite(flow.rate);
    if (done) callbacks.push_back(std::move(flow.on_complete));
    return done;
  });
  recompute_rates();
  schedule_completion();
  for (InlineAction& callback : callbacks) {
    if (callback) callback();
  }
}

}  // namespace cellstream::reference
