#include "fault/fault_plan.hpp"

#include <iomanip>
#include <sstream>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace cellstream::fault {

namespace {

void put_double(std::ostream& out, double v) {
  out << std::setprecision(17) << v;
}

}  // namespace

void FaultPlan::validate(const CellPlatform& platform) const {
  const std::size_t n = platform.pe_count();
  if (pe_failure) {
    CS_ENSURE(pe_failure->pe < n, "FaultPlan: fail-stop PE out of range");
    CS_ENSURE(pe_failure->at_instance >= 0,
              "FaultPlan: fail-stop instance must be >= 0");
  }
  for (const Slowdown& s : slowdowns) {
    CS_ENSURE(s.pe < n, "FaultPlan: slowdown PE out of range");
    CS_ENSURE(s.from_instance >= 0 && s.to_instance >= s.from_instance,
              "FaultPlan: slowdown window is empty or negative");
    CS_ENSURE(s.factor >= 1.0, "FaultPlan: slowdown factor must be >= 1");
  }
  for (const Hang& h : hangs) {
    CS_ENSURE(h.pe < n, "FaultPlan: hang PE out of range");
    CS_ENSURE(h.at_instance >= 0, "FaultPlan: hang instance must be >= 0");
    CS_ENSURE(h.seconds >= 0.0, "FaultPlan: hang duration must be >= 0");
  }
  CS_ENSURE(dma.rate >= 0.0 && dma.rate < 1.0,
            "FaultPlan: DMA failure rate must be in [0, 1)");
  CS_ENSURE(dma.max_retries >= 0, "FaultPlan: max_retries must be >= 0");
  CS_ENSURE(dma.backoff_seconds >= 0.0,
            "FaultPlan: backoff must be >= 0 seconds");
  CS_ENSURE(dma.jitter >= 0.0, "FaultPlan: jitter must be >= 0");
}

std::string FaultPlan::to_text() const {
  std::ostringstream out;
  out << "faultplan v1\n";
  out << "seed " << seed << "\n";
  if (dma.rate > 0.0) {
    out << "dma ";
    put_double(out, dma.rate);
    out << " " << dma.max_retries << " ";
    put_double(out, dma.backoff_seconds);
    out << " ";
    put_double(out, dma.jitter);
    out << "\n";
  }
  if (pe_failure) {
    out << "fail-pe " << pe_failure->pe << " " << pe_failure->at_instance
        << "\n";
  }
  for (const Slowdown& s : slowdowns) {
    out << "slowdown " << s.pe << " " << s.from_instance << " "
        << s.to_instance << " ";
    put_double(out, s.factor);
    out << "\n";
  }
  for (const Hang& h : hangs) {
    out << "hang " << h.pe << " " << h.at_instance << " ";
    put_double(out, h.seconds);
    out << "\n";
  }
  return out.str();
}

FaultPlan FaultPlan::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  CS_ENSURE(header == "faultplan v1",
            "FaultPlan::from_text: bad header '" + header + "'");
  FaultPlan plan;
  std::string line;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    bool ok = true;
    if (keyword == "seed") {
      ok = static_cast<bool>(fields >> plan.seed);
    } else if (keyword == "dma") {
      ok = static_cast<bool>(fields >> plan.dma.rate >> plan.dma.max_retries >>
                             plan.dma.backoff_seconds >> plan.dma.jitter);
    } else if (keyword == "fail-pe") {
      PeFailure f;
      ok = static_cast<bool>(fields >> f.pe >> f.at_instance);
      CS_ENSURE(!plan.pe_failure,
                "FaultPlan::from_text: more than one fail-pe line");
      plan.pe_failure = f;
    } else if (keyword == "slowdown") {
      Slowdown s;
      ok = static_cast<bool>(fields >> s.pe >> s.from_instance >>
                             s.to_instance >> s.factor);
      plan.slowdowns.push_back(s);
    } else if (keyword == "hang") {
      Hang h;
      ok = static_cast<bool>(fields >> h.pe >> h.at_instance >> h.seconds);
      plan.hangs.push_back(h);
    } else {
      throw Error("FaultPlan::from_text: unknown keyword '" + keyword +
                  "' on line " + std::to_string(line_no));
    }
    CS_ENSURE(ok, "FaultPlan::from_text: malformed '" + keyword +
                      "' line " + std::to_string(line_no));
  }
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const CellPlatform& platform,
                            std::int64_t instances) {
  CS_ENSURE(instances > 0, "FaultPlan::random: need a positive stream");
  Rng rng(seed ^ 0xFA017D0C5EEDULL);
  FaultPlan plan;
  plan.seed = seed;

  const auto any_pe = [&] {
    return static_cast<PeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(platform.pe_count()) - 1));
  };

  // Fail-stop of one SPE somewhere in the middle half of the stream, so
  // both phases of the failover see real steady-state traffic.  Skipped
  // when the platform has no SPEs (PPE-only runs have nothing safe to
  // kill) or the stream is too short to split.
  if (platform.spe_count > 0 && instances >= 4 && rng.bernoulli(0.6)) {
    PeFailure f;
    f.pe = static_cast<PeId>(
        platform.ppe_count +
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(platform.spe_count) - 1)));
    f.at_instance = rng.uniform_int(instances / 4, (3 * instances) / 4);
    plan.pe_failure = f;
  }

  if (rng.bernoulli(0.7)) {
    plan.dma.rate = rng.uniform(0.002, 0.05);
    plan.dma.max_retries = static_cast<int>(rng.uniform_int(3, 8));
    plan.dma.backoff_seconds = rng.uniform(1.0e-5, 1.0e-4);
    plan.dma.jitter = rng.uniform(0.0, 1.0);
  }

  const std::int64_t windows = rng.uniform_int(0, 2);
  for (std::int64_t i = 0; i < windows; ++i) {
    Slowdown s;
    s.pe = any_pe();
    s.from_instance = rng.uniform_int(0, instances - 1);
    s.to_instance =
        s.from_instance + rng.uniform_int(0, instances - 1 - s.from_instance);
    s.factor = rng.uniform(1.5, 4.0);
    plan.slowdowns.push_back(s);
  }

  if (rng.bernoulli(0.3)) {
    Hang h;
    h.pe = any_pe();
    h.at_instance = rng.uniform_int(0, instances - 1);
    h.seconds = rng.uniform(1.0e-4, 1.0e-3);
    plan.hangs.push_back(h);
  }

  plan.validate(platform);
  return plan;
}

}  // namespace cellstream::fault
