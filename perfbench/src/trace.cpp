#include "trace.hpp"

#include <chrono>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::begin_op() { ++op_; }

Tracer::Scope Tracer::span(const char* layer, std::string name) {
  if (!enabled_) return Scope(nullptr, 0);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.op = op_;
  s.layer = layer;
  s.name = std::move(name);
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

void Tracer::close(std::size_t index) {
  Span& s = spans_[index];
  s.end_s = now_s();
  open_.pop_back();
  if (!open_.empty()) spans_[open_.back()].child_s += s.end_s - s.start_s;
}

std::map<std::string, LayerSummary> Tracer::summary() const {
  std::map<std::string, LayerSummary> out;
  for (const Span& s : spans_) {
    LayerSummary& l = out[s.layer];
    ++l.count;
    l.total_s += s.end_s - s.start_s;
    l.self_s += s.end_s - s.start_s - s.child_s;
  }
  return out;
}

double Tracer::seconds(const std::string& layer, const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.layer == layer && (name.empty() || s.name == name)) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

cellstream::json::Value Tracer::to_json() const {
  namespace json = cellstream::json;
  json::Value layers = json::Value::object();
  for (const auto& [layer, l] : summary()) {
    json::Value entry = json::Value::object();
    entry.set("count", l.count);
    entry.set("total_s", l.total_s);
    entry.set("self_s", l.self_s);
    layers.set(layer, std::move(entry));
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  json::Value spans = json::Value::array();
  for (const Span& s : spans_) {
    json::Value entry = json::Value::object();
    entry.set("id", s.id);
    entry.set("parent", s.parent);
    entry.set("op", s.op);
    entry.set("layer", s.layer);
    entry.set("name", s.name);
    entry.set("start_s", s.start_s - origin);
    entry.set("end_s", s.end_s - origin);
    spans.push_back(std::move(entry));
  }
  json::Value doc = json::Value::object();
  doc.set("layers", std::move(layers));
  doc.set("spans", std::move(spans));
  return doc;
}

}  // namespace perfbench
