#include "core/task_graph.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_set>

#include "support/strings.hpp"

namespace cellstream {

TaskId TaskGraph::add_task(Task task) {
  // Not "T" + to_string(...): GCC 12 at -O3 flags that with a false
  // -Wrestrict.
  if (task.name.empty()) {
    task.name = std::to_string(tasks_.size()).insert(0, 1, 'T');
  }
  tasks_.push_back(std::move(task));
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return tasks_.size() - 1;
}

EdgeId TaskGraph::add_edge(TaskId from, TaskId to, double data_bytes) {
  CS_ENSURE(from < tasks_.size(), "add_edge: unknown source task");
  CS_ENSURE(to < tasks_.size(), "add_edge: unknown target task");
  CS_ENSURE(from != to, "add_edge: self loop");
  CS_ENSURE(data_bytes >= 0.0, "add_edge: negative data size");
  for (const EdgeId e : out_edges_[from]) {
    CS_ENSURE(edges_[e].to != to, "add_edge: duplicate edge");
  }
  const EdgeId id = edges_.size();
  edges_.push_back(Edge{from, to, data_bytes});
  out_edges_[from].push_back(id);
  in_edges_[to].push_back(id);
  return id;
}

std::vector<TaskId> TaskGraph::sources() const {
  std::vector<TaskId> out;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (in_edges_[t].empty()) out.push_back(t);
  }
  return out;
}

std::vector<TaskId> TaskGraph::sinks() const {
  std::vector<TaskId> out;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (out_edges_[t].empty()) out.push_back(t);
  }
  return out;
}

std::vector<TaskId> TaskGraph::topological_order() const {
  std::vector<std::size_t> in_degree(tasks_.size());
  for (TaskId t = 0; t < tasks_.size(); ++t) in_degree[t] = in_edges_[t].size();

  // Kahn's algorithm with a min-heap so the order is deterministic and
  // respects task ids among ready tasks.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (in_degree[t] == 0) ready.push(t);
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    order.push_back(t);
    for (EdgeId e : out_edges_[t]) {
      if (--in_degree[edges_[e].to] == 0) ready.push(edges_[e].to);
    }
  }
  CS_ENSURE(order.size() == tasks_.size(), "topological_order: graph has a cycle");
  return order;
}

bool TaskGraph::is_acyclic() const {
  try {
    (void)topological_order();
    return true;
  } catch (const Error&) {
    return false;
  }
}

void TaskGraph::validate() const {
  CS_ENSURE(!tasks_.empty(), "validate: empty graph");
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const Task& task = tasks_[t];
    CS_ENSURE(task.wppe >= 0.0, "validate: negative wppe on " + task.name);
    CS_ENSURE(task.wspe >= 0.0, "validate: negative wspe on " + task.name);
    CS_ENSURE(task.peek >= 0, "validate: negative peek on " + task.name);
    CS_ENSURE(task.read_bytes >= 0.0, "validate: negative reads on " + task.name);
    CS_ENSURE(task.write_bytes >= 0.0, "validate: negative writes on " + task.name);
  }
  for (const Edge& e : edges_) {
    CS_ENSURE(e.data_bytes >= 0.0, "validate: negative edge data size");
  }
  CS_ENSURE(is_acyclic(), "validate: graph has a cycle");
}

std::size_t TaskGraph::depth() const {
  const std::vector<TaskId> order = topological_order();
  std::vector<std::size_t> level(tasks_.size(), 0);
  std::size_t max_level = 0;
  for (TaskId t : order) {
    for (EdgeId e : in_edges(t)) {
      level[t] = std::max(level[t], level[edges_[e].from] + 1);
    }
    max_level = std::max(max_level, level[t]);
  }
  return max_level;
}

double TaskGraph::total_wppe() const {
  double sum = 0.0;
  for (const Task& t : tasks_) sum += t.wppe;
  return sum;
}

double TaskGraph::total_wspe() const {
  double sum = 0.0;
  for (const Task& t : tasks_) sum += t.wspe;
  return sum;
}

double TaskGraph::total_data_bytes() const {
  double sum = 0.0;
  for (const Edge& e : edges_) sum += e.data_bytes;
  for (const Task& t : tasks_) sum += t.read_bytes + t.write_bytes;
  return sum;
}

double TaskGraph::ccr(double ops_per_second) const {
  CS_ENSURE(ops_per_second > 0.0, "ccr: non-positive operation rate");
  const double work_ops = total_wspe() * ops_per_second;
  CS_ENSURE(work_ops > 0.0, "ccr: graph has no computation");
  return total_data_bytes() / work_ops;
}

void TaskGraph::scale_to_ccr(double target, double ops_per_second) {
  CS_ENSURE(target > 0.0, "scale_to_ccr: non-positive target");
  const double current = ccr(ops_per_second);
  CS_ENSURE(current > 0.0, "scale_to_ccr: graph moves no data");
  const double factor = target / current;
  for (Edge& e : edges_) e.data_bytes *= factor;
  for (Task& t : tasks_) {
    t.read_bytes *= factor;
    t.write_bytes *= factor;
  }
}

// --------------------------------------------------------------------------
// Serialization.
//
// Grammar (line oriented, '#' comments):
//   graph <name>
//   task <name> wppe=<f> wspe=<f> peek=<i> read=<f> write=<f> stateful=<0|1>
//   edge <from-index> <to-index> data=<f>

std::string TaskGraph::to_text() const {
  std::ostringstream os;
  os << "graph " << (name_.empty() ? "unnamed" : name_) << "\n";
  for (const Task& t : tasks_) {
    os << "task " << t.name << " wppe=" << format_number(t.wppe, 17)
       << " wspe=" << format_number(t.wspe, 17) << " peek=" << t.peek
       << " read=" << format_number(t.read_bytes, 17)
       << " write=" << format_number(t.write_bytes, 17)
       << " stateful=" << (t.stateful ? 1 : 0) << "\n";
  }
  for (const Edge& e : edges_) {
    os << "edge " << e.from << " " << e.to
       << " data=" << format_number(e.data_bytes, 17) << "\n";
  }
  return os.str();
}

namespace {

double parse_field(const std::string& token, std::string_view key) {
  CS_ENSURE(starts_with(token, key) && token.size() > key.size() &&
                token[key.size()] == '=',
            "from_text: expected field '" + std::string(key) + "', got '" +
                token + "'");
  return std::stod(token.substr(key.size() + 1));
}

}  // namespace

TaskGraph TaskGraph::from_text(const std::string& text) {
  TaskGraph graph;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    std::istringstream ls{std::string(stripped)};
    std::string kind;
    ls >> kind;
    if (kind == "graph") {
      std::string name;
      ls >> name;
      graph.set_name(name);
    } else if (kind == "task") {
      Task t;
      std::string f1, f2, f3, f4, f5, f6;
      ls >> t.name >> f1 >> f2 >> f3 >> f4 >> f5 >> f6;
      CS_ENSURE(!ls.fail(), "from_text: malformed task line: " + line);
      t.wppe = parse_field(f1, "wppe");
      t.wspe = parse_field(f2, "wspe");
      t.peek = static_cast<int>(parse_field(f3, "peek"));
      t.read_bytes = parse_field(f4, "read");
      t.write_bytes = parse_field(f5, "write");
      t.stateful = parse_field(f6, "stateful") != 0.0;
      graph.add_task(std::move(t));
    } else if (kind == "edge") {
      std::size_t from = 0, to = 0;
      std::string data;
      ls >> from >> to >> data;
      CS_ENSURE(!ls.fail(), "from_text: malformed edge line: " + line);
      graph.add_edge(from, to, parse_field(data, "data"));
    } else {
      throw Error("from_text: unknown record '" + kind + "'");
    }
  }
  graph.validate();
  return graph;
}

std::string TaskGraph::to_dot() const {
  std::ostringstream os;
  os << "digraph \"" << (name_.empty() ? "app" : name_) << "\" {\n";
  os << "  node [shape=box];\n";
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const Task& task = tasks_[t];
    os << "  t" << t << " [label=\"" << task.name
       << "\\nppe=" << format_number(task.wppe, 4)
       << " spe=" << format_number(task.wspe, 4) << "\\npeek=" << task.peek
       << (task.stateful ? " stateful" : " stateless") << "\"];\n";
  }
  for (const Edge& e : edges_) {
    os << "  t" << e.from << " -> t" << e.to << " [label=\""
       << format_bytes(e.data_bytes) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace cellstream
