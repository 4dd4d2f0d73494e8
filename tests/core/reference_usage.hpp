#pragma once
// Test-local reference: SteadyStateAnalysis::usage() and violations() as
// they were before the numeric account (account / within_limits) was
// split from the reports — one pass that allocates its vectors, builds
// the bottleneck label on every improvement and formats a message per
// broken limit.  It is kept only to check the account against
// (tests/core/resource_account_test.cpp); nothing in src/ uses it.

#include <sstream>
#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "support/strings.hpp"

namespace cellstream::reference {

/// The fields ResourceUsage had before the account was split out.
struct Usage {
  std::vector<double> compute_seconds;
  std::vector<double> incoming_bytes;
  std::vector<double> outgoing_bytes;
  std::vector<double> buffer_bytes;
  std::vector<std::size_t> incoming_transfers;
  std::vector<std::size_t> to_ppe_transfers;
  std::vector<double> cross_chip_out_bytes;
  std::vector<double> cross_chip_in_bytes;
  double period = 0.0;
  std::string bottleneck;
};

inline Usage usage(const SteadyStateAnalysis& analysis,
                   const Mapping& mapping) {
  const TaskGraph& graph = analysis.graph();
  const CellPlatform& platform = analysis.platform();
  CS_ENSURE(mapping.task_count() == graph.task_count(),
            "usage: mapping size does not match the graph");
  mapping.validate(platform);

  const std::size_t n = platform.pe_count();
  Usage u;
  u.compute_seconds.assign(n, 0.0);
  u.incoming_bytes.assign(n, 0.0);
  u.outgoing_bytes.assign(n, 0.0);
  u.buffer_bytes.assign(n, 0.0);
  u.incoming_transfers.assign(n, 0);
  u.to_ppe_transfers.assign(n, 0);
  u.cross_chip_out_bytes.assign(platform.chip_count, 0.0);
  u.cross_chip_in_bytes.assign(platform.chip_count, 0.0);

  for (TaskId t = 0; t < graph.task_count(); ++t) {
    const Task& task = graph.task(t);
    const PeId pe = mapping.pe_of(t);
    u.compute_seconds[pe] += platform.is_ppe(pe) ? task.wppe : task.wspe;
    u.incoming_bytes[pe] += task.read_bytes;
    u.outgoing_bytes[pe] += task.write_bytes;
    if (platform.is_spe(pe)) {
      u.buffer_bytes[pe] += analysis.task_buffer_bytes(t);
    }
  }
  if (analysis.buffer_policy() == BufferPolicy::kSharedColocated) {
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      const Edge& edge = graph.edge(e);
      const PeId src = mapping.pe_of(edge.from);
      if (src == mapping.pe_of(edge.to) && platform.is_spe(src)) {
        u.buffer_bytes[src] -= analysis.buffer_bytes(e);
      }
    }
  }

  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    const PeId src = mapping.pe_of(edge.from);
    const PeId dst = mapping.pe_of(edge.to);
    if (src == dst) continue;
    u.outgoing_bytes[src] += edge.data_bytes;
    u.incoming_bytes[dst] += edge.data_bytes;
    u.incoming_transfers[dst] += 1;
    if (platform.is_spe(src) && platform.is_ppe(dst)) {
      u.to_ppe_transfers[src] += 1;
    }
    if (platform.crosses_chips(src, dst)) {
      u.cross_chip_out_bytes[platform.chip_of(src)] += edge.data_bytes;
      u.cross_chip_in_bytes[platform.chip_of(dst)] += edge.data_bytes;
    }
  }

  const double bw = platform.interface_bandwidth;
  u.period = 0.0;
  for (PeId pe = 0; pe < n; ++pe) {
    struct Candidate {
      double value;
      const char* what;
    };
    const Candidate candidates[] = {
        {u.compute_seconds[pe], "compute"},
        {u.incoming_bytes[pe] / bw, "incoming"},
        {u.outgoing_bytes[pe] / bw, "outgoing"},
    };
    for (const Candidate& c : candidates) {
      if (c.value > u.period) {
        u.period = c.value;
        u.bottleneck = platform.pe_name(pe) + " " + c.what;
      }
    }
  }
  for (std::size_t chip = 0; chip < platform.chip_count; ++chip) {
    const double xbw = platform.cross_chip_bandwidth;
    const double out_time = u.cross_chip_out_bytes[chip] / xbw;
    const double in_time = u.cross_chip_in_bytes[chip] / xbw;
    if (out_time > u.period) {
      u.period = out_time;
      u.bottleneck = "chip" + std::to_string(chip) + " link out";
    }
    if (in_time > u.period) {
      u.period = in_time;
      u.bottleneck = "chip" + std::to_string(chip) + " link in";
    }
  }
  return u;
}

inline std::vector<std::string> violations(const SteadyStateAnalysis& analysis,
                                           const Mapping& mapping) {
  const CellPlatform& platform = analysis.platform();
  const Usage u = usage(analysis, mapping);
  std::vector<std::string> out;
  const double budget = static_cast<double>(platform.buffer_budget());
  for (PeId pe = 0; pe < platform.pe_count(); ++pe) {
    if (!platform.is_spe(pe)) continue;
    if (u.buffer_bytes[pe] > budget) {
      std::ostringstream os;
      os << platform.pe_name(pe) << ": buffers "
         << format_bytes(u.buffer_bytes[pe]) << " exceed local-store budget "
         << format_bytes(budget);
      out.push_back(os.str());
    }
    if (u.incoming_transfers[pe] > platform.spe_dma_slots) {
      std::ostringstream os;
      os << platform.pe_name(pe) << ": " << u.incoming_transfers[pe]
         << " incoming transfers exceed " << platform.spe_dma_slots
         << " DMA slots";
      out.push_back(os.str());
    }
    if (u.to_ppe_transfers[pe] > platform.ppe_to_spe_dma_slots) {
      std::ostringstream os;
      os << platform.pe_name(pe) << ": " << u.to_ppe_transfers[pe]
         << " transfers to PPEs exceed " << platform.ppe_to_spe_dma_slots
         << " proxy DMA slots";
      out.push_back(os.str());
    }
  }
  return out;
}

}  // namespace cellstream::reference
