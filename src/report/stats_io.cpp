#include "report/stats_io.hpp"

#include <sstream>

namespace cellstream::report {

namespace {

json::Value convergence_to_json(const obs::Report& report) {
  json::Value samples = json::Value::array();
  for (const auto& [instance, throughput] : report.convergence) {
    json::Value sample = json::Value::object();
    sample.set("instance", json::Value(static_cast<std::uint64_t>(instance)));
    sample.set("throughput", json::Value(throughput));
    samples.push_back(std::move(sample));
  }
  return samples;
}

json::Value solver_to_json(const obs::SolverStats& solver) {
  if (!solver.present) return json::Value();  // null: heuristic mapping
  json::Value v = json::Value::object();
  v.set("status", json::Value(solver.status));
  v.set("nodes", json::Value(static_cast<std::uint64_t>(solver.nodes)));
  v.set("rounds", json::Value(static_cast<std::uint64_t>(solver.rounds)));
  v.set("lp_iterations",
        json::Value(static_cast<std::uint64_t>(solver.lp_iterations)));
  v.set("threads", json::Value(static_cast<std::uint64_t>(solver.threads)));
  v.set("objective", json::Value(solver.objective));
  v.set("best_bound", json::Value(solver.best_bound));
  v.set("gap", json::Value(solver.gap));
  v.set("solve_seconds", json::Value(solver.solve_seconds));
  v.set("mapping_candidates",
        json::Value(static_cast<std::uint64_t>(solver.mapping_candidates)));
  v.set("mapping_evaluations",
        json::Value(static_cast<std::uint64_t>(solver.mapping_evaluations)));
  v.set("polish_seconds", json::Value(solver.polish_seconds));
  v.set("proxy_cuts",
        json::Value(static_cast<std::uint64_t>(solver.proxy_cuts)));
  json::Value trajectory = json::Value::array();
  for (const auto& point : solver.incumbents) {
    json::Value p = json::Value::object();
    p.set("round", json::Value(static_cast<std::uint64_t>(point.round)));
    p.set("nodes", json::Value(static_cast<std::uint64_t>(point.nodes)));
    p.set("objective", json::Value(point.objective));
    trajectory.push_back(std::move(p));
  }
  v.set("incumbents", std::move(trajectory));
  return v;
}

json::Value faults_to_json(const obs::Report& report) {
  if (!report.faults) return json::Value();  // null: no fault plan
  const obs::FaultStats& faults = *report.faults;
  json::Value v = json::Value::object();
  v.set("dma_retries",
        json::Value(static_cast<std::int64_t>(faults.dma_retries)));
  v.set("backoff_seconds", json::Value(faults.backoff_seconds));
  v.set("hangs", json::Value(static_cast<std::int64_t>(faults.hangs)));
  v.set("hang_seconds", json::Value(faults.hang_seconds));
  v.set("slowdown_seconds", json::Value(faults.slowdown_seconds));
  v.set("failovers", json::Value(static_cast<std::int64_t>(faults.failovers)));
  v.set("downtime_seconds", json::Value(faults.downtime_seconds));
  v.set("migrated_tasks",
        json::Value(static_cast<std::int64_t>(faults.migrated_tasks)));
  v.set("migrated_bytes", json::Value(faults.migrated_bytes));
  v.set("failed_pe", json::Value(static_cast<std::int64_t>(faults.failed_pe)));
  v.set("fail_instance",
        json::Value(static_cast<std::int64_t>(faults.fail_instance)));
  v.set("predicted_post_throughput",
        json::Value(report.predicted_post_throughput));
  return v;
}

}  // namespace

json::Value stats_to_json(const obs::Report& report) {
  json::Value doc = json::Value::object();
  doc.set("schema", json::Value(kStatsSchema));

  json::Value graph = json::Value::object();
  graph.set("name", json::Value(report.graph));
  graph.set("tasks", json::Value(static_cast<std::uint64_t>(report.tasks)));
  graph.set("edges", json::Value(static_cast<std::uint64_t>(report.edges)));
  doc.set("graph", std::move(graph));

  json::Value platform = json::Value::object();
  platform.set("ppes", json::Value(static_cast<std::uint64_t>(report.ppes)));
  platform.set("spes", json::Value(static_cast<std::uint64_t>(report.spes)));
  doc.set("platform", std::move(platform));

  json::Value run = json::Value::object();
  run.set("domain", json::Value(obs::to_string(report.domain)));
  run.set("instances", json::Value(report.instances));
  run.set("elapsed_seconds", json::Value(report.elapsed_seconds));
  run.set("executions", json::Value(report.executions));
  run.set("transfers", json::Value(report.transfers));
  doc.set("run", std::move(run));

  json::Value predicted = json::Value::object();
  predicted.set("period", json::Value(report.predicted_period));
  predicted.set("throughput", json::Value(report.predicted_throughput));
  predicted.set("bottleneck", json::Value(report.bottleneck));
  doc.set("predicted", std::move(predicted));

  json::Value observed = json::Value::object();
  observed.set("throughput", json::Value(report.observed_throughput));
  observed.set("steady_throughput", json::Value(report.steady_throughput));
  doc.set("observed", std::move(observed));

  json::Value crosscheck = json::Value::object();
  crosscheck.set("applicable", json::Value(report.crosscheck_applicable));
  crosscheck.set("tolerance", json::Value(report.tolerance));
  crosscheck.set("ok", json::Value(report.crosscheck_ok()));
  json::Value flagged = json::Value::array();
  for (const std::string& detail : report.flagged) {
    flagged.push_back(json::Value(detail));
  }
  crosscheck.set("flagged", std::move(flagged));
  doc.set("crosscheck", std::move(crosscheck));

  json::Value resources = json::Value::array();
  for (const obs::ResourceSample& sample : report.resources) {
    json::Value r = json::Value::object();
    r.set("resource", json::Value(sample.resource));
    r.set("pe", json::Value(static_cast<std::uint64_t>(sample.pe)));
    r.set("kind", json::Value(obs::to_string(sample.kind)));
    r.set("predicted_seconds", json::Value(sample.predicted));
    r.set("observed_seconds", json::Value(sample.observed));
    r.set("ratio", json::Value(sample.ratio()));
    resources.push_back(std::move(r));
  }
  doc.set("resources", std::move(resources));

  doc.set("convergence", convergence_to_json(report));
  doc.set("solver", solver_to_json(report.solver));
  doc.set("faults", faults_to_json(report));
  return doc;
}

std::string stats_json(const obs::Report& report) {
  return stats_to_json(report).dump(2) + "\n";
}

std::string stats_csv(const obs::Report& report) {
  std::ostringstream os;
  os << "resource,pe,kind,predicted_seconds,observed_seconds,ratio\n";
  os.precision(17);
  for (const obs::ResourceSample& sample : report.resources) {
    os << sample.resource << "," << sample.pe << ","
       << obs::to_string(sample.kind) << "," << sample.predicted << ","
       << sample.observed << "," << sample.ratio() << "\n";
  }
  return os.str();
}

namespace {

/// Append "prefix: missing/expected..." diagnostics for a member of the
/// given kind; returns the member or nullptr.
const json::Value* expect(const json::Value& object, const std::string& key,
                          json::Value::Kind kind, const std::string& prefix,
                          std::vector<std::string>& problems) {
  if (!object.is_object()) {
    problems.push_back(prefix + ": not an object");
    return nullptr;
  }
  if (!object.has(key)) {
    problems.push_back(prefix + "." + key + ": missing");
    return nullptr;
  }
  const json::Value& member = object.at(key);
  if (member.kind() != kind) {
    problems.push_back(prefix + "." + key + ": wrong type");
    return nullptr;
  }
  return &member;
}

}  // namespace

std::vector<std::string> validate_stats_json(const json::Value& document) {
  std::vector<std::string> problems;
  if (!document.is_object()) {
    problems.push_back("document: not a JSON object");
    return problems;
  }
  using Kind = json::Value::Kind;
  bool legacy_v1 = false;
  if (const json::Value* schema =
          expect(document, "schema", Kind::kString, "document", problems)) {
    const std::string& tag = schema->as_string();
    if (tag == kStatsSchemaV1) {
      legacy_v1 = true;
    } else if (tag != kStatsSchema) {
      problems.push_back("schema: got '" + tag + "', want '" +
                         std::string(kStatsSchema) + "' (or legacy '" +
                         std::string(kStatsSchemaV1) + "')");
    }
  }

  if (const json::Value* graph =
          expect(document, "graph", Kind::kObject, "document", problems)) {
    expect(*graph, "name", Kind::kString, "graph", problems);
    expect(*graph, "tasks", Kind::kNumber, "graph", problems);
    expect(*graph, "edges", Kind::kNumber, "graph", problems);
  }
  if (const json::Value* platform =
          expect(document, "platform", Kind::kObject, "document", problems)) {
    expect(*platform, "ppes", Kind::kNumber, "platform", problems);
    expect(*platform, "spes", Kind::kNumber, "platform", problems);
  }
  if (const json::Value* run =
          expect(document, "run", Kind::kObject, "document", problems)) {
    if (const json::Value* domain =
            expect(*run, "domain", Kind::kString, "run", problems)) {
      const std::string& d = domain->as_string();
      if (d != "simulated" && d != "wall") {
        problems.push_back("run.domain: got '" + d +
                           "', want 'simulated' or 'wall'");
      }
    }
    expect(*run, "instances", Kind::kNumber, "run", problems);
    expect(*run, "elapsed_seconds", Kind::kNumber, "run", problems);
    expect(*run, "executions", Kind::kNumber, "run", problems);
    expect(*run, "transfers", Kind::kNumber, "run", problems);
  }
  if (const json::Value* predicted =
          expect(document, "predicted", Kind::kObject, "document", problems)) {
    expect(*predicted, "period", Kind::kNumber, "predicted", problems);
    expect(*predicted, "throughput", Kind::kNumber, "predicted", problems);
    expect(*predicted, "bottleneck", Kind::kString, "predicted", problems);
  }
  if (const json::Value* observed =
          expect(document, "observed", Kind::kObject, "document", problems)) {
    expect(*observed, "throughput", Kind::kNumber, "observed", problems);
    expect(*observed, "steady_throughput", Kind::kNumber, "observed",
           problems);
  }

  if (const json::Value* crosscheck =
          expect(document, "crosscheck", Kind::kObject, "document",
                 problems)) {
    expect(*crosscheck, "applicable", Kind::kBool, "crosscheck", problems);
    expect(*crosscheck, "tolerance", Kind::kNumber, "crosscheck", problems);
    const json::Value* ok =
        expect(*crosscheck, "ok", Kind::kBool, "crosscheck", problems);
    const json::Value* flagged =
        expect(*crosscheck, "flagged", Kind::kArray, "crosscheck", problems);
    if (ok != nullptr && flagged != nullptr &&
        ok->as_bool() != (flagged->size() == 0)) {
      problems.push_back(
          "crosscheck: 'ok' inconsistent with 'flagged' contents");
    }
  }

  if (const json::Value* resources =
          expect(document, "resources", Kind::kArray, "document", problems)) {
    for (std::size_t i = 0; i < resources->size(); ++i) {
      const std::string prefix = "resources[" + std::to_string(i) + "]";
      const json::Value& r = resources->at(i);
      if (!r.is_object()) {
        problems.push_back(prefix + ": not an object");
        continue;
      }
      expect(r, "resource", Kind::kString, prefix, problems);
      expect(r, "pe", Kind::kNumber, prefix, problems);
      if (const json::Value* kind =
              expect(r, "kind", Kind::kString, prefix, problems)) {
        const std::string& k = kind->as_string();
        if (k != "compute" && k != "in" && k != "out") {
          problems.push_back(prefix + ".kind: got '" + k + "'");
        }
      }
      expect(r, "predicted_seconds", Kind::kNumber, prefix, problems);
      expect(r, "observed_seconds", Kind::kNumber, prefix, problems);
      expect(r, "ratio", Kind::kNumber, prefix, problems);
    }
  }

  if (const json::Value* convergence =
          expect(document, "convergence", Kind::kArray, "document",
                 problems)) {
    for (std::size_t i = 0; i < convergence->size(); ++i) {
      const std::string prefix = "convergence[" + std::to_string(i) + "]";
      const json::Value& sample = convergence->at(i);
      if (!sample.is_object()) {
        problems.push_back(prefix + ": not an object");
        continue;
      }
      expect(sample, "instance", Kind::kNumber, prefix, problems);
      expect(sample, "throughput", Kind::kNumber, prefix, problems);
    }
  }

  if (!document.has("solver")) {
    problems.push_back("document.solver: missing (null allowed)");
  } else if (const json::Value& solver = document.at("solver");
             !solver.is_null()) {
    if (!solver.is_object()) {
      problems.push_back("solver: wrong type (object or null)");
    } else {
      expect(solver, "status", Kind::kString, "solver", problems);
      expect(solver, "nodes", Kind::kNumber, "solver", problems);
      expect(solver, "rounds", Kind::kNumber, "solver", problems);
      expect(solver, "lp_iterations", Kind::kNumber, "solver", problems);
      expect(solver, "threads", Kind::kNumber, "solver", problems);
      expect(solver, "objective", Kind::kNumber, "solver", problems);
      expect(solver, "best_bound", Kind::kNumber, "solver", problems);
      expect(solver, "gap", Kind::kNumber, "solver", problems);
      expect(solver, "solve_seconds", Kind::kNumber, "solver", problems);
      // Optional: documents written before the mapper counted its local
      // search and its (1k) cuts carry none of these keys.
      for (const char* key :
           {"mapping_candidates", "mapping_evaluations", "polish_seconds",
            "proxy_cuts"}) {
        if (solver.has(key)) {
          expect(solver, key, Kind::kNumber, "solver", problems);
        }
      }
      if (const json::Value* incumbents = expect(
              solver, "incumbents", Kind::kArray, "solver", problems)) {
        for (std::size_t i = 0; i < incumbents->size(); ++i) {
          const std::string prefix = "solver.incumbents[" +
                                     std::to_string(i) + "]";
          const json::Value& point = incumbents->at(i);
          if (!point.is_object()) {
            problems.push_back(prefix + ": not an object");
            continue;
          }
          expect(point, "round", Kind::kNumber, prefix, problems);
          expect(point, "nodes", Kind::kNumber, prefix, problems);
          expect(point, "objective", Kind::kNumber, prefix, problems);
        }
      }
    }
  }

  // The faults section is what v2 adds: required there (null when the run
  // had no fault plan), and must not appear in a legacy v1 document.
  if (legacy_v1) {
    if (document.has("faults")) {
      problems.push_back(
          "document.faults: present in a v1 document (v2 section)");
    }
  } else if (!document.has("faults")) {
    problems.push_back("document.faults: missing (null allowed)");
  } else if (const json::Value& faults = document.at("faults");
             !faults.is_null()) {
    if (!faults.is_object()) {
      problems.push_back("faults: wrong type (object or null)");
    } else {
      expect(faults, "dma_retries", Kind::kNumber, "faults", problems);
      expect(faults, "backoff_seconds", Kind::kNumber, "faults", problems);
      expect(faults, "hangs", Kind::kNumber, "faults", problems);
      expect(faults, "hang_seconds", Kind::kNumber, "faults", problems);
      expect(faults, "slowdown_seconds", Kind::kNumber, "faults", problems);
      expect(faults, "failovers", Kind::kNumber, "faults", problems);
      expect(faults, "downtime_seconds", Kind::kNumber, "faults", problems);
      expect(faults, "migrated_tasks", Kind::kNumber, "faults", problems);
      expect(faults, "migrated_bytes", Kind::kNumber, "faults", problems);
      const json::Value* failed_pe =
          expect(faults, "failed_pe", Kind::kNumber, "faults", problems);
      const json::Value* failovers = faults.has("failovers") &&
                                             faults.at("failovers").is_number()
                                         ? &faults.at("failovers")
                                         : nullptr;
      expect(faults, "fail_instance", Kind::kNumber, "faults", problems);
      expect(faults, "predicted_post_throughput", Kind::kNumber, "faults",
             problems);
      if (failed_pe != nullptr && failovers != nullptr &&
          (failovers->as_number() > 0.0) != (failed_pe->as_number() >= 0.0)) {
        problems.push_back(
            "faults: 'failovers' inconsistent with 'failed_pe'");
      }
    }
  }

  return problems;
}

}  // namespace cellstream::report
