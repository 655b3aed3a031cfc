#include "nav/buildgraph.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace navsep::nav {

std::string_view to_string(ProductKind k) noexcept {
  switch (k) {
    case ProductKind::Source: return "Source";
    case ProductKind::Route: return "Route";
    case ProductKind::Landmark: return "Landmark";
    case ProductKind::Linkbase: return "Linkbase";
    case ProductKind::ArcTable: return "ArcTable";
    case ProductKind::ArcSlice: return "ArcSlice";
    case ProductKind::Page: return "Page";
  }
  return "?";
}

std::uint64_t hash_bytes(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) noexcept {
  // Mix the value through FNV over its bytes so combine(0, x) != x and
  // order matters.
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xffull;
    h *= 0x100000001b3ull;
  }
  return h;
}

void BuildGraph::define(const std::string& id, ProductKind kind,
                        std::vector<std::string> deps, Rebuild rebuild) {
  ++topology_revision_;
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
  if (nodes_.erase(id) == 0) return false;
  ++topology_revision_;
  return true;
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

std::vector<std::string> BuildGraph::ids() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [id, _] : nodes_) out.push_back(id);
  return out;
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

BuildGraph::Plan BuildGraph::plan() const {
  // Kahn's algorithm over the defined nodes. Edges from dangling dep ids
  // (declared but not defined) are ignored — they activate when defined.
  Plan out;
  std::map<std::string_view, std::size_t> in_degree;
  for (const auto& [id, _] : nodes_) in_degree.emplace(id, 0);
  for (const auto& [id, node] : nodes_) {
    for (const std::string& dep : node.deps) {
      if (nodes_.find(dep) == nodes_.end()) continue;
      ++in_degree[id];
      out.dependents[dep].push_back(id);
    }
  }

  std::vector<std::string_view> ready;
  for (const auto& [id, _] : nodes_) {
    if (in_degree[id] == 0) ready.push_back(id);
  }
  out.order.reserve(nodes_.size());
  // `ready` is consumed as a queue; map iteration order keeps everything
  // deterministic.
  for (std::size_t head = 0; head < ready.size(); ++head) {
    std::string_view id = ready[head];
    out.order.emplace_back(id);
    auto dep_it = out.dependents.find(id);
    if (dep_it == out.dependents.end()) continue;
    for (const std::string& dependent : dep_it->second) {
      if (--in_degree[dependent] == 0) ready.push_back(dependent);
    }
  }
  if (out.order.size() != nodes_.size()) {
    throw SemanticError(
        "BuildGraph: dependency cycle among " +
        std::to_string(nodes_.size() - out.order.size()) + " node(s)");
  }
  return out;
}

std::shared_ptr<const BuildGraph::Plan> BuildGraph::current_plan() {
  if (plan_ == nullptr || plan_revision_ != topology_revision_) {
    obs::ScopedSpan span(telemetry_ != nullptr ? &telemetry_->spans() : nullptr,
                         "build.plan", epoch_hint_);
    plan_ = std::make_shared<const Plan>(plan());
    plan_revision_ = topology_revision_;
    if (plans_ != nullptr) plans_->add(1);
  }
  return plan_;
}

void BuildGraph::set_telemetry(obs::Registry* registry) {
  plans_ = registry != nullptr ? &registry->counter("build.plans") : nullptr;
  telemetry_ = registry;
}

RebuildReport BuildGraph::run() {
  RebuildReport report;
  const auto any_dirty = [this] {
    return std::any_of(nodes_.begin(), nodes_.end(),
                       [](const auto& entry) { return entry.second.dirty; });
  };
  // Rebuild callbacks may define or remove nodes (the page set follows
  // the member set), which invalidates the plan — so run in passes until
  // the graph is clean. Each pass processes strictly in dependency order,
  // so a node rebuilds at most once per pass and only after its
  // producers; a topology change aborts the pass and replans.
  constexpr std::size_t kMaxPasses = 64;  // far above any real depth
  for (std::size_t pass = 0; pass < kMaxPasses && any_dirty(); ++pass) {
    const std::shared_ptr<const Plan> plan = current_plan();
    const std::uint64_t planned_topology = plan_revision_;
    for (const std::string& id : plan->order) {
      auto it = nodes_.find(id);
      if (it == nodes_.end()) continue;  // removed earlier this pass
      if (!it->second.dirty) continue;
      ++report.nodes_dirty;
      // Cleared before the callback, so a callback that re-dirties its
      // own node gets another pass.
      it->second.dirty = false;
      if (!it->second.rebuild) continue;
      ++report.nodes_rebuilt;
      if (it->second.kind == ProductKind::Page) ++report.pages_rewoven;
      std::uint64_t new_hash = 0;
      try {
        // Call through a copy: the callback may remove or redefine its
        // own node, which would otherwise destroy the std::function
        // mid-call.
        const Rebuild rebuild = it->second.rebuild;
        new_hash = rebuild();
      } catch (...) {
        // The product was not rebuilt: the dirty bit says so, and the
        // next run rebuilds exactly this node (and what it feeds).
        mark_dirty(id);
        throw;
      }
      // The callback may have mutated the graph; re-find before writing.
      auto after = nodes_.find(id);
      if (after == nodes_.end()) continue;
      const std::uint64_t old_hash = after->second.hash;
      after->second.hash = new_hash;
      if (new_hash != old_hash) {
        ++report.nodes_changed;
        if (after->second.kind == ProductKind::Linkbase) {
          ++report.linkbases_reauthored;
        }
        // Propagate along the plan's reverse edges; nodes defined
        // mid-pass start dirty and are picked up by the next pass.
        if (auto dep_it = plan->dependents.find(id);
            dep_it != plan->dependents.end()) {
          for (const std::string& dependent : dep_it->second) {
            mark_dirty(dependent);
          }
        }
      }
      if (topology_revision_ != planned_topology) break;  // replan
    }
  }
  // The pass budget is a backstop against rebuild callbacks that redirty
  // the graph forever (a define() per invocation, say). Exhausting it
  // with work left must fail loudly — returning a normal-looking report
  // over an unsettled site would be a silent lie.
  for (const auto& [id, node] : nodes_) {
    if (node.dirty) {
      throw SemanticError("BuildGraph::run: graph failed to settle within " +
                          std::to_string(kMaxPasses) + " passes ('" + id +
                          "' still dirty) — a rebuild callback keeps "
                          "redirtying the graph");
    }
  }
  report.pages_total = count(ProductKind::Page);
  return report;
}

}  // namespace navsep::nav
