#include "obs/report.hpp"

#include <sstream>

#include "support/strings.hpp"

namespace cellstream::obs {

namespace {

std::string flag_text(const ResourceSample& sample, double tolerance) {
  std::ostringstream os;
  os << sample.resource << ": observed occupation "
     << format_number(sample.observed) << " s/instance exceeds predicted "
     << format_number(sample.predicted) << " s/instance (x"
     << format_number(sample.ratio()) << ", tolerance "
     << format_number(tolerance) << ")";
  return os.str();
}

}  // namespace

const char* to_string(ResourceSample::Kind kind) {
  switch (kind) {
    case ResourceSample::Kind::kCompute: return "compute";
    case ResourceSample::Kind::kIn: return "in";
    case ResourceSample::Kind::kOut: return "out";
  }
  return "unknown";
}

Report build_report(const SteadyStateAnalysis& analysis,
                    const Mapping& mapping, const Counters& counters,
                    double occupation_tolerance) {
  const CellPlatform& platform = analysis.platform();
  const TaskGraph& graph = analysis.graph();
  CS_ENSURE(counters.pe.size() == platform.pe_count(),
            "build_report: counters cover " +
                std::to_string(counters.pe.size()) + " PEs, platform has " +
                std::to_string(platform.pe_count()));

  Report report;
  report.graph = graph.name();
  report.tasks = graph.task_count();
  report.edges = graph.edge_count();
  report.ppes = platform.ppe_count;
  report.spes = platform.spe_count;

  report.domain = counters.domain;
  report.instances = counters.instances_completed();
  report.elapsed_seconds = counters.elapsed_seconds;
  report.executions = counters.total_executions();
  report.transfers = counters.total_transfers();

  const ResourceUsage usage = analysis.usage(mapping);
  report.predicted_period = usage.period;
  report.predicted_throughput = analysis.throughput(mapping);
  report.bottleneck = usage.bottleneck;

  report.observed_throughput = counters.observed_throughput();
  report.steady_throughput = counters.steady_throughput();

  report.tolerance = occupation_tolerance;
  report.crosscheck_applicable =
      counters.domain == TimeDomain::kSimulated && report.instances > 0;

  const double instances =
      report.instances > 0 ? static_cast<double>(report.instances) : 1.0;
  const double bw = platform.interface_bandwidth;
  for (PeId pe = 0; pe < platform.pe_count(); ++pe) {
    const PeCounters& c = counters.pe[pe];
    const ResourceSample samples[] = {
        {platform.pe_name(pe) + " compute", pe, ResourceSample::Kind::kCompute,
         usage.compute_seconds[pe], c.compute_seconds / instances},
        {platform.pe_name(pe) + " in", pe, ResourceSample::Kind::kIn,
         usage.incoming_bytes[pe] / bw, c.bytes_in / instances / bw},
        {platform.pe_name(pe) + " out", pe, ResourceSample::Kind::kOut,
         usage.outgoing_bytes[pe] / bw, c.bytes_out / instances / bw},
    };
    for (const ResourceSample& sample : samples) {
      report.resources.push_back(sample);
      // The cross-check direction is one-sided: an execution may use
      // *less* than the model (it finished the stream early, overlapped
      // better, ...), but using more than predicted means the model
      // missed real load — exactly what invariant I7 exists to catch.
      if (report.crosscheck_applicable &&
          sample.observed >
              sample.predicted * (1.0 + occupation_tolerance) + 1e-12) {
        report.flagged.push_back(flag_text(sample, occupation_tolerance));
      }
    }
    // DMA-queue telemetry rides along: the peaks are recorded per run and
    // must respect the hardware stacks the model budgets (1j/1k).
    if (report.crosscheck_applicable && platform.is_spe(pe)) {
      if (c.mfc_queue_peak > platform.spe_dma_slots) {
        report.flagged.push_back(
            platform.pe_name(pe) + ": MFC queue peak " +
            std::to_string(c.mfc_queue_peak) + " exceeds the " +
            std::to_string(platform.spe_dma_slots) + "-slot hardware stack");
      }
      if (c.proxy_queue_peak > platform.ppe_to_spe_dma_slots) {
        report.flagged.push_back(
            platform.pe_name(pe) + ": proxy queue peak " +
            std::to_string(c.proxy_queue_peak) + " exceeds the " +
            std::to_string(platform.ppe_to_spe_dma_slots) +
            "-slot hardware stack");
      }
    }
  }

  report.convergence = counters.windowed_throughput();
  return report;
}

}  // namespace cellstream::obs
