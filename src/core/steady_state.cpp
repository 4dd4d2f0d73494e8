#include "core/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "support/strings.hpp"

namespace cellstream {

std::vector<std::int64_t> compute_first_periods(const TaskGraph& graph) {
  std::vector<std::int64_t> fp(graph.task_count(), 0);
  for (TaskId t : graph.topological_order()) {
    const auto& in = graph.in_edges(t);
    if (in.empty()) {
      fp[t] = 0;
      continue;
    }
    std::int64_t latest_pred = 0;
    for (EdgeId e : in) {
      latest_pred = std::max(latest_pred, fp[graph.edge(e).from]);
    }
    fp[t] = latest_pred + graph.task(t).peek + 2;
  }
  return fp;
}

SteadyStateAnalysis::SteadyStateAnalysis(TaskGraph graph,
                                         CellPlatform platform,
                                         BufferPolicy buffer_policy)
    : graph_(std::move(graph)),
      platform_(std::move(platform)),
      buffer_policy_(buffer_policy) {
  graph_.validate();
  platform_.validate();
  first_periods_ = compute_first_periods(graph_);

  edge_buffer_depth_.resize(graph_.edge_count());
  edge_loads_.resize(graph_.edge_count());
  for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const Edge& edge = graph_.edge(e);
    const std::int64_t depth =
        first_periods_[edge.to] - first_periods_[edge.from];
    CS_ASSERT(depth >= 2, "buffer depth below 2 contradicts the recurrence");
    edge_buffer_depth_[e] = depth;
    edge_loads_[e] = {edge.from, edge.to, edge.data_bytes,
                      edge.data_bytes * static_cast<double>(depth)};
  }

  task_loads_.resize(graph_.task_count());
  for (TaskId t = 0; t < graph_.task_count(); ++t) {
    const Task& task = graph_.task(t);
    task_loads_[t] = {task.wppe, task.wspe, task.read_bytes, task.write_bytes,
                      0.0};
  }
  for (const EdgeLoad& edge : edge_loads_) {
    // Both endpoints allocate the buffer (paper Section 4.2: buffers are
    // duplicated even for co-located neighbours).
    task_loads_[edge.from].buffer_bytes += edge.buffer_bytes;
    task_loads_[edge.to].buffer_bytes += edge.buffer_bytes;
  }
  incident_begin_.reserve(graph_.task_count() + 1);
  incident_begin_.assign(1, 0);
  incident_.reserve(2 * graph_.edge_count());
  for (TaskId t = 0; t < graph_.task_count(); ++t) {
    for (EdgeId e : graph_.out_edges(t)) incident_.push_back(e);
    for (EdgeId e : graph_.in_edges(t)) incident_.push_back(e);
    incident_begin_.push_back(incident_.size());
  }

  chip_of_.resize(platform_.pe_count());
  for (PeId pe = 0; pe < platform_.pe_count(); ++pe) {
    chip_of_[pe] = platform_.chip_of(pe);
  }
  buffer_budget_ = static_cast<double>(platform_.buffer_budget());
}

void SteadyStateAnalysis::account(const Mapping& mapping,
                                  ResourceUsage& u) const {
  CS_ENSURE(mapping.task_count() == task_loads_.size(),
            "account: mapping size does not match the graph");
  mapping.validate(platform_);
  const std::vector<PeId>& pe_of = mapping.raw();

  // PEs [0, ppe_count) are PPEs, the rest SPEs (CellPlatform).
  const std::size_t n = platform_.pe_count();
  const PeId first_spe = platform_.ppe_count;
  u.compute_seconds.assign(n, 0.0);
  u.incoming_bytes.assign(n, 0.0);
  u.outgoing_bytes.assign(n, 0.0);
  u.buffer_bytes.assign(n, 0.0);
  u.incoming_transfers.assign(n, 0);
  u.to_ppe_transfers.assign(n, 0);
  u.cross_chip_out_bytes.assign(platform_.chip_count, 0.0);
  u.cross_chip_in_bytes.assign(platform_.chip_count, 0.0);
  u.bottleneck.clear();

  for (TaskId t = 0; t < task_loads_.size(); ++t) {
    const TaskLoad& task = task_loads_[t];
    const PeId pe = pe_of[t];
    const bool on_spe = pe >= first_spe;
    u.compute_seconds[pe] += on_spe ? task.wspe : task.wppe;
    // Memory traffic crosses the hosting PE's interface (constraints 1g/1h).
    u.incoming_bytes[pe] += task.read_bytes;
    u.outgoing_bytes[pe] += task.write_bytes;
    if (on_spe) u.buffer_bytes[pe] += task.buffer_bytes;
  }

  const bool shared = buffer_policy_ == BufferPolicy::kSharedColocated;
  for (const EdgeLoad& edge : edge_loads_) {
    const PeId src = pe_of[edge.from];
    const PeId dst = pe_of[edge.to];
    if (src == dst) {
      // Co-located: no transfer.  Under the shared-buffer policy the
      // neighbours share one buffer, so remove the duplicate copy charged
      // above (TaskLoad::buffer_bytes counts it at both endpoints).
      if (shared && src >= first_spe) u.buffer_bytes[src] -= edge.buffer_bytes;
      continue;
    }
    u.outgoing_bytes[src] += edge.data_bytes;
    u.incoming_bytes[dst] += edge.data_bytes;
    u.incoming_transfers[dst] += 1;
    if (src >= first_spe && dst < first_spe) {
      // SPE -> PPE transfers go through the SPE's 8-deep proxy DMA stack.
      u.to_ppe_transfers[src] += 1;
    }
    if (chip_of_[src] != chip_of_[dst]) {
      u.cross_chip_out_bytes[chip_of_[src]] += edge.data_bytes;
      u.cross_chip_in_bytes[chip_of_[dst]] += edge.data_bytes;
    }
  }

  using Resource = ResourceUsage::Resource;
  const auto consider = [&u](double value, Resource what, std::size_t index) {
    if (value > u.period) {
      u.period = value;
      u.bottleneck_resource = what;
      u.bottleneck_index = index;
    }
  };
  u.period = 0.0;
  u.bottleneck_resource = Resource::kNone;
  u.bottleneck_index = 0;
  const double bw = platform_.interface_bandwidth;
  for (PeId pe = 0; pe < n; ++pe) {
    consider(u.compute_seconds[pe], Resource::kCompute, pe);
    consider(u.incoming_bytes[pe] / bw, Resource::kIncoming, pe);
    consider(u.outgoing_bytes[pe] / bw, Resource::kOutgoing, pe);
  }
  const double xbw = platform_.cross_chip_bandwidth;
  for (std::size_t chip = 0; chip < platform_.chip_count; ++chip) {
    consider(u.cross_chip_out_bytes[chip] / xbw, Resource::kLinkOut, chip);
    consider(u.cross_chip_in_bytes[chip] / xbw, Resource::kLinkIn, chip);
  }
}

LimitBreaks SteadyStateAnalysis::broken_limits(const ResourceUsage& u,
                                               PeId spe) const {
  CS_ENSURE(spe >= platform_.ppe_count && spe < u.buffer_bytes.size(),
            "broken_limits: not a SPE of this account");
  LimitBreaks out;
  out.buffers = u.buffer_bytes[spe] > buffer_budget_;
  out.dma_slots = u.incoming_transfers[spe] > platform_.spe_dma_slots;
  out.proxy_slots = u.to_ppe_transfers[spe] > platform_.ppe_to_spe_dma_slots;
  return out;
}

bool SteadyStateAnalysis::within_limits(const ResourceUsage& u) const {
  for (PeId pe = platform_.ppe_count; pe < platform_.pe_count(); ++pe) {
    if (broken_limits(u, pe).any()) return false;
  }
  return true;
}

ResourceUsage SteadyStateAnalysis::usage(const Mapping& mapping) const {
  ResourceUsage u;
  account(mapping, u);
  using Resource = ResourceUsage::Resource;
  const std::size_t i = u.bottleneck_index;
  switch (u.bottleneck_resource) {
    case Resource::kNone:
      break;
    case Resource::kCompute:
      u.bottleneck = platform_.pe_name(i) + " compute";
      break;
    case Resource::kIncoming:
      u.bottleneck = platform_.pe_name(i) + " incoming";
      break;
    case Resource::kOutgoing:
      u.bottleneck = platform_.pe_name(i) + " outgoing";
      break;
    case Resource::kLinkOut:
      u.bottleneck = "chip" + std::to_string(i) + " link out";
      break;
    case Resource::kLinkIn:
      u.bottleneck = "chip" + std::to_string(i) + " link in";
      break;
  }
  return u;
}

double SteadyStateAnalysis::period(const Mapping& mapping) const {
  ResourceUsage u;
  account(mapping, u);
  return u.period;
}

double SteadyStateAnalysis::throughput(const Mapping& mapping) const {
  const double t = period(mapping);
  if (t <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / t;
}

bool SteadyStateAnalysis::feasible(const Mapping& mapping) const {
  ResourceUsage u;
  account(mapping, u);
  return within_limits(u);
}

std::vector<std::string> SteadyStateAnalysis::violations(
    const Mapping& mapping) const {
  ResourceUsage u;
  account(mapping, u);
  std::vector<std::string> out;
  for (PeId pe = platform_.ppe_count; pe < platform_.pe_count(); ++pe) {
    const LimitBreaks broken = broken_limits(u, pe);
    if (broken.buffers) {
      std::ostringstream os;
      os << platform_.pe_name(pe) << ": buffers "
         << format_bytes(u.buffer_bytes[pe]) << " exceed local-store budget "
         << format_bytes(buffer_budget_);
      out.push_back(os.str());
    }
    if (broken.dma_slots) {
      std::ostringstream os;
      os << platform_.pe_name(pe) << ": " << u.incoming_transfers[pe]
         << " incoming transfers exceed " << platform_.spe_dma_slots
         << " DMA slots";
      out.push_back(os.str());
    }
    if (broken.proxy_slots) {
      std::ostringstream os;
      os << platform_.pe_name(pe) << ": " << u.to_ppe_transfers[pe]
         << " transfers to PPEs exceed " << platform_.ppe_to_spe_dma_slots
         << " proxy DMA slots";
      out.push_back(os.str());
    }
  }
  return out;
}

}  // namespace cellstream
