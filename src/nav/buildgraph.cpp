#include "nav/buildgraph.hpp"

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace navsep::nav {

namespace {

void refuse_mid_run(bool running, std::string_view call,
                    const std::string& id) {
  if (!running) return;
  throw SemanticError("BuildGraph::" + std::string(call) + "('" + id +
                      "') from a rebuild callback: the topology is fixed "
                      "while run() is in flight");
}

}  // namespace

void BuildGraph::define(const std::string& id, ProductKind kind,
                        std::vector<std::string> deps, Rebuild rebuild) {
  refuse_mid_run(running_, "define", id);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    Node node;
    node.kind = kind;
    node.deps = std::move(deps);
    node.rebuild = std::move(rebuild);
    nodes_.emplace(id, std::move(node));
    return;
  }
  // Redefinition keeps the stored hash: the product may be unchanged, and
  // early cutoff should still apply on the next rebuild.
  it->second.kind = kind;
  it->second.deps = std::move(deps);
  it->second.rebuild = std::move(rebuild);
  it->second.dirty = true;
}

bool BuildGraph::remove(const std::string& id) {
  refuse_mid_run(running_, "remove", id);
  return nodes_.erase(id) != 0;
}

bool BuildGraph::contains(std::string_view id) const {
  return nodes_.find(id) != nodes_.end();
}

std::size_t BuildGraph::count(ProductKind kind) const {
  std::size_t n = 0;
  for (const auto& [_, node] : nodes_) {
    if (node.kind == kind) ++n;
  }
  return n;
}

std::vector<std::string> BuildGraph::ids(ProductKind kind) const {
  std::vector<std::string> out;
  for (const auto& [id, node] : nodes_) {
    if (node.kind == kind) out.push_back(id);
  }
  return out;
}

std::uint64_t BuildGraph::hash_of(std::string_view id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second.hash;
}

bool BuildGraph::is_dirty(std::string_view id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.dirty;
}

void BuildGraph::mark_dirty(const std::string& id) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) it->second.dirty = true;
}

void BuildGraph::mark_all_dirty() {
  for (auto& [_, node] : nodes_) node.dirty = true;
}

BuildGraph::Plan BuildGraph::plan() {
  // Kahn's algorithm over the defined nodes. Edges from dangling dep ids
  // (declared but not defined) are ignored — they activate when defined.
  Plan out;
  out.nodes.reserve(nodes_.size());
  std::map<std::string_view, std::size_t> index;
  for (auto& [id, node] : nodes_) {
    index.emplace(id, out.nodes.size());
    out.nodes.push_back(&node);
  }
  out.dependents.resize(out.nodes.size());
  std::vector<std::size_t> in_degree(out.nodes.size(), 0);
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    for (const std::string& dep : out.nodes[i]->deps) {
      auto producer = index.find(dep);
      if (producer == index.end()) continue;
      out.dependents[producer->second].push_back(i);
      ++in_degree[i];
    }
  }
  // `order` is consumed as a queue; map order keeps it deterministic.
  out.order.reserve(out.nodes.size());
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    if (in_degree[i] == 0) out.order.push_back(i);
  }
  for (std::size_t head = 0; head < out.order.size(); ++head) {
    for (const std::size_t dependent : out.dependents[out.order[head]]) {
      if (--in_degree[dependent] == 0) out.order.push_back(dependent);
    }
  }
  if (out.order.size() != out.nodes.size()) {
    throw SemanticError(
        "BuildGraph: dependency cycle among " +
        std::to_string(out.nodes.size() - out.order.size()) + " node(s)");
  }
  return out;
}

RebuildReport BuildGraph::run() {
  Plan plan;
  {
    obs::ScopedSpan span(telemetry_ != nullptr ? &telemetry_->spans() : nullptr,
                         "build.plan", epoch_hint_);
    plan = this->plan();
  }
  // One pass: each node rebuilds at most once, after its producers.
  RebuildReport report;
  running_ = true;
  for (const std::size_t i : plan.order) {
    Node& node = *plan.nodes[i];
    if (!node.dirty) continue;
    ++report.nodes_dirty;
    node.dirty = false;
    if (!node.rebuild) continue;
    ++report.nodes_rebuilt;
    std::uint64_t hash = 0;
    try {
      hash = node.rebuild();
    } catch (...) {
      // The product was not rebuilt: the dirty bit says so, and the
      // next run rebuilds exactly this node (and what it feeds).
      node.dirty = true;
      running_ = false;
      throw;
    }
    if (hash == node.hash) continue;  // early cutoff
    node.hash = hash;
    ++report.nodes_changed;
    if (node.kind == ProductKind::Linkbase) ++report.linkbases_reauthored;
    for (const std::size_t dependent : plan.dependents[i]) {
      plan.nodes[dependent]->dirty = true;
    }
  }
  running_ = false;
  return report;
}

}  // namespace navsep::nav
