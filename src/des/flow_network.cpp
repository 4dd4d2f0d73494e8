#include "des/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace cellstream::des {

namespace {
// Relative slack below which a transfer counts as finished (absorbs the
// floating-point drift of repeated progress updates).
constexpr double kFinishSlack = 1e-9;
}  // namespace

FlowNetwork::FlowNetwork(Engine& engine, std::vector<double> out_capacity,
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

ResourceId FlowNetwork::add_resource(double capacity) {
  CS_ENSURE(capacity > 0.0, "add_resource: non-positive capacity");
  capacity_.push_back(capacity);
  return capacity_.size() - 1;
}

ResourceId FlowNetwork::out_port(NodeId node) const {
  CS_ENSURE(node < node_count_, "out_port: unknown node");
  return node;
}

ResourceId FlowNetwork::in_port(NodeId node) const {
  CS_ENSURE(node < node_count_, "in_port: unknown node");
  return node_count_ + node;
}

void FlowNetwork::set_time_quantum(double quantum) {
  CS_ENSURE(quantum >= 0.0 && std::isfinite(quantum),
            "set_time_quantum: bad quantum");
  quantum_ = quantum;
}

TransferId FlowNetwork::start_transfer(NodeId src, NodeId dst, double bytes,
                                       InlineAction on_complete) {
  CS_ENSURE(src < node_count_ && dst < node_count_,
            "start_transfer: unknown node");
  CS_ENSURE(src != dst, "start_transfer: src == dst needs no transfer");
  return start_transfer_over({out_port(src), in_port(dst)}, bytes,
                             std::move(on_complete));
}

TransferId FlowNetwork::start_transfer_over(
    std::span<const ResourceId> resources, double bytes,
    InlineAction on_complete) {
  CS_ENSURE(bytes >= 0.0, "start_transfer: negative size");
  CS_ENSURE(resources.size() <= kMaxResources,
            "start_transfer: more than 4 resources");
  for (ResourceId r : resources) {
    CS_ENSURE(r < capacity_.size(), "start_transfer: unknown resource");
  }
  advance_progress();
  const TransferId id = next_id_++;
  // Ids are issued monotonically, so appending keeps flows_ sorted.
  Flow& flow = flows_.emplace_back();
  flow.id = id;
  std::copy(resources.begin(), resources.end(), flow.resource_slots.begin());
  flow.resource_count = resources.size();
  flow.remaining = bytes;
  flow.on_complete = std::move(on_complete);
  recompute_rates();
  schedule_completion();
  return id;
}

const FlowNetwork::Flow* FlowNetwork::find(TransferId id) const {
  const auto it =
      std::lower_bound(flows_.begin(), flows_.end(), id,
                       [](const Flow& f, TransferId v) { return f.id < v; });
  if (it == flows_.end() || it->id != id) return nullptr;
  return &*it;
}

double FlowNetwork::current_rate(TransferId id) const {
  const Flow* flow = find(id);
  return flow == nullptr ? 0.0 : flow->rate;
}

void FlowNetwork::advance_progress() {
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

void FlowNetwork::recompute_rates() {
  // Progressive filling: repeatedly saturate the resource with the
  // smallest fair share and freeze its flows at that rate.  flows_ is
  // visited in id order, so the arithmetic (and thus every resulting
  // rate bit pattern) depends only on the flow state, never on hashing.
  ++recomputations_;
  std::vector<double>& left = left_;
  std::vector<std::size_t>& count = count_;
  std::vector<Flow*>& open = open_;
  left.assign(capacity_.begin(), capacity_.end());
  count.assign(capacity_.size(), 0);
  open.clear();
  for (Flow& flow : flows_) {
    for (ResourceId r : flow.resources()) ++count[r];
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
    std::vector<Flow*>& still_open = still_open_;
    still_open.clear();
    bool froze_any = false;
    for (Flow* flow : open) {
      bool tight = false;
      for (ResourceId r : flow->resources()) {
        if (std::isfinite(left[r]) &&
            left[r] / static_cast<double>(count[r]) <= fair * (1.0 + 1e-12)) {
          tight = true;
          break;
        }
      }
      if (tight) {
        flow->rate = fair;
        for (ResourceId r : flow->resources()) {
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

void FlowNetwork::schedule_completion() {
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

void FlowNetwork::on_completion_event() {
  completion_pending_ = false;
  advance_progress();
  // Collect finished flows first: callbacks may start new transfers.  The
  // list is taken out of callbacks_ for the calls and handed back after,
  // so its storage is reused.
  std::vector<InlineAction> callbacks;
  callbacks.swap(callbacks_);
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
  callbacks.clear();
  callbacks_.swap(callbacks);
}

}  // namespace cellstream::des
