#include "nav/buildgraph.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"
#include "nav/worker_pool.hpp"
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
    case ProductKind::Server: return "Server";
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
  it->second.parallel_rebuild = nullptr;
  it->second.dirty = true;
}

void BuildGraph::define_parallel(const std::string& id, ProductKind kind,
                                 std::vector<std::string> deps,
                                 ParallelRebuild rebuild) {
  ++topology_revision_;
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    Node node;
    node.kind = kind;
    node.deps = std::move(deps);
    node.parallel_rebuild = std::move(rebuild);
    nodes_.emplace(id, std::move(node));
    return;
  }
  it->second.kind = kind;
  it->second.deps = std::move(deps);
  it->second.rebuild = nullptr;
  it->second.parallel_rebuild = std::move(rebuild);
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

RebuildReport BuildGraph::run() { return run(nullptr); }

RebuildReport BuildGraph::run(WorkerPool* pool) {
  RebuildReport report;
  const bool parallel = pool != nullptr && pool->workers() > 1;
  report.weave_workers = parallel ? pool->workers() : 1;
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
    for (std::size_t pos = 0; pos < plan->order.size(); ++pos) {
      const std::string& id = plan->order[pos];
      auto it = nodes_.find(id);
      if (it == nodes_.end()) continue;  // removed earlier this pass
      if (!it->second.dirty) continue;
      if (parallel && it->second.parallel_rebuild) {
        // Gather the wave: this node plus every dirty parallel node later
        // in the plan whose defined inputs have all settled. Plan order
        // puts producers first, so anything still dirty among a
        // candidate's deps means the candidate is not ready this wave.
        std::vector<std::string> wave;
        for (std::size_t j = pos; j < plan->order.size(); ++j) {
          auto cand = nodes_.find(plan->order[j]);
          if (cand == nodes_.end() || !cand->second.dirty ||
              !cand->second.parallel_rebuild) {
            continue;
          }
          const bool ready = std::none_of(
              cand->second.deps.begin(), cand->second.deps.end(),
              [this](const std::string& dep) { return is_dirty(dep); });
          if (ready) wave.push_back(plan->order[j]);
        }
        if (!wave.empty()) {
          run_wave(wave, *pool, *plan, report);
          if (topology_revision_ != planned_topology) break;  // replan
        }
        // Otherwise not ready (a dep defined mid-pass is still dirty):
        // the node stays dirty for the next pass.
        continue;
      }
      ++report.nodes_dirty;
      // Cleared before the callback, so a callback that re-dirties its
      // own node gets another pass.
      it->second.dirty = false;
      if (!it->second.rebuild && !it->second.parallel_rebuild) continue;
      ++report.nodes_rebuilt;
      if (it->second.kind == ProductKind::Page) ++report.pages_rewoven;
      std::uint64_t new_hash = 0;
      try {
        if (it->second.parallel_rebuild) {
          // Inline (serial) execution of a parallel node: compute, then
          // commit immediately — the same observable sequence as a
          // classic rebuild callback.
          const ParallelRebuild rebuild = it->second.parallel_rebuild;
          ParallelOutcome outcome = rebuild();
          new_hash = outcome.hash;
          if (outcome.commit) outcome.commit();
        } else {
          // Call through a copy: the callback may remove or redefine its
          // own node, which would otherwise destroy the std::function
          // mid-call.
          const Rebuild rebuild = it->second.rebuild;
          new_hash = rebuild();
        }
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

void BuildGraph::run_wave(const std::vector<std::string>& wave,
                          WorkerPool& pool, const Plan& plan,
                          RebuildReport& report) {
  // Compute concurrently into per-slot state (no shared writes: each
  // task owns its slot, and compute phases are contractually forbidden
  // from touching the graph).
  struct Slot {
    ParallelRebuild rebuild;
    std::uint64_t hash = 0;
    std::function<void()> commit;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    slots[i].rebuild = nodes_.find(wave[i])->second.parallel_rebuild;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(slots.size());
  for (Slot& slot : slots) {
    tasks.push_back([&slot] {
      try {
        ParallelOutcome outcome = slot.rebuild();
        slot.hash = outcome.hash;
        slot.commit = std::move(outcome.commit);
      } catch (...) {
        slot.error = std::current_exception();
      }
    });
  }
  obs::SpanLog* spans = telemetry_ != nullptr ? &telemetry_->spans() : nullptr;
  {
    obs::ScopedSpan span(spans, "build.wave.compute", epoch_hint_);
    pool.run(tasks);
  }
  report.max_parallel_weaves =
      std::max(report.max_parallel_weaves, wave.size());
  if (telemetry_ != nullptr) {
    telemetry_->histogram("build.wave_occupancy")
        .record(static_cast<std::uint64_t>(wave.size()));
  }

  // Commit serially, in plan order — deterministic regardless of which
  // lane computed what. A compute error surfaces here with serial-run
  // node state: the throwing node and every node after it in plan order
  // stay dirty (their computed results discarded), the commits before it
  // have landed.
  obs::ScopedSpan commit_span(spans, "build.wave.commit", epoch_hint_);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    auto it = nodes_.find(wave[i]);
    if (it == nodes_.end()) continue;
    ++report.nodes_dirty;
    ++report.nodes_rebuilt;
    if (it->second.kind == ProductKind::Page) ++report.pages_rewoven;
    if (slots[i].error) std::rethrow_exception(slots[i].error);
    if (slots[i].commit) slots[i].commit();
    it->second.dirty = false;
    const std::uint64_t old_hash = it->second.hash;
    it->second.hash = slots[i].hash;
    if (slots[i].hash != old_hash) {
      ++report.nodes_changed;
      if (it->second.kind == ProductKind::Linkbase) {
        ++report.linkbases_reauthored;
      }
      if (auto dep_it = plan.dependents.find(wave[i]);
          dep_it != plan.dependents.end()) {
        for (const std::string& dependent : dep_it->second) {
          mark_dirty(dependent);
        }
      }
    }
  }
}

}  // namespace navsep::nav
