// The incremental rebuild engine's dependency graph.
//
// Every product of the separated-navigation pipeline — the authored
// navigation spec, each linkbase document, the merged arc table, each
// page's slice of that table, each woven page — becomes a node with explicit dependency edges, a content hash and a
// dirty bit. A mutation marks its source node dirty; run() walks the
// graph in dependency order, rebuilds dirty nodes, and propagates
// dirtiness to dependents ONLY when a node's content hash actually
// changed (early cutoff, the classic incremental-build trick). An edit
// whose downstream products hash the same stops dead; an edit to one
// linkbase arc re-weaves exactly the pages whose arc slice changed.
//
// The graph is a mechanism, not a policy: nodes are (kind, deps,
// rebuild-callback) and the engine (nav/pipeline.cpp) wires the domain.
// Rebuild callbacks may define() and remove() nodes while a run is in
// flight — the member set of an access structure changes the page set —
// and run() keeps iterating until no dirty node remains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace navsep::obs {
class Counter;
class Registry;
}

namespace navsep::nav {

/// What a node produces. Source nodes are mutation entry points; the
/// rest name pipeline products. Kinds drive the RebuildReport counters
/// (pages_rewoven counts Page nodes, linkbases_reauthored Linkbase ones).
enum class ProductKind {
  Source,     // authored inputs: the navigation spec
  Route,      // one registered route program (name + canonical expression)
  Landmark,   // one landmark synthesis program (name + options + traffic)
  Linkbase,   // one authored linkbase document (links*.xml)
  ArcTable,   // the merged traversal graph + combined arc set
  ArcSlice,   // one page's view of the arc table (arcs leaving it)
  Page,       // one woven page
};

[[nodiscard]] std::string_view to_string(ProductKind k) noexcept;

/// What one run() did — the observable cost of a mutation. The paper's
/// change-impact asymmetry (bench/e1) counts authored artifacts touched;
/// this is its runtime companion: pages_rewoven / pages_total is the
/// fraction of the site the edit actually re-wove.
struct RebuildReport {
  std::size_t nodes_dirty = 0;     ///< nodes processed as dirty
  std::size_t nodes_rebuilt = 0;   ///< rebuild callbacks run
  std::size_t nodes_changed = 0;   ///< rebuilds whose content hash changed
  std::size_t pages_rewoven = 0;   ///< Page nodes recomposed
  std::size_t pages_total = 0;     ///< Page nodes in the graph after the run
  std::size_t linkbases_reauthored = 0;  ///< Linkbase nodes whose text changed

  // --- batching --------------------------------------------------------------
  /// Mutations coalesced into this run (1 for an unbatched mutation, the
  /// batch size for Engine::commit_batch; set by the engine, not run()).
  std::size_t edits_coalesced = 0;
  /// Snapshot epochs this run published (set by the engine: 1 per
  /// unbatched mutation or non-empty batch commit, 0 for an empty batch).
  std::size_t epochs_published = 0;

  /// pages_rewoven / pages_total (0 when the site is empty).
  [[nodiscard]] double reweave_ratio() const noexcept {
    return pages_total == 0
               ? 0.0
               : static_cast<double>(pages_rewoven) /
                     static_cast<double>(pages_total);
  }
};

/// FNV-1a 64-bit — the graph's content hash. Deterministic across runs
/// and platforms, which keeps incremental-vs-full comparisons exact.
[[nodiscard]] std::uint64_t hash_bytes(std::string_view bytes) noexcept;

/// Order-sensitive combination (h(a)+h(b) must differ from h(b)+h(a)).
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t seed,
                                         std::uint64_t value) noexcept;

class BuildGraph {
 public:
  /// Point graph-run telemetry at `registry` (nullptr = off, the
  /// default): run() then records an epoch-correlated build.plan span
  /// into the registry's SpanLog for every plan it computes and counts
  /// those plans in the `build.plans` counter (a run whose topology did
  /// not move reuses the last plan and counts none). The registry must
  /// outlive the graph or be detached first. Non-owning on purpose: the
  /// engine owns the shared_ptr, the graph just reports into it.
  void set_telemetry(obs::Registry* registry);

  /// The epoch spans recorded by the next run() are stamped with — the
  /// engine sets it to the epoch the run is building toward, so a
  /// burst's run/plan/publish spans all correlate.
  void set_epoch_hint(std::uint64_t epoch) noexcept { epoch_hint_ = epoch; }

  /// Recompute the node's product and return its content hash. Runs only
  /// when the node is dirty; a returned hash equal to the previous one
  /// stops propagation (dependents stay clean).
  using Rebuild = std::function<std::uint64_t()>;

  /// Define (or redefine) a node. `deps` are producer node ids: when any
  /// of them changes, this node is re-run. Dependencies may be declared
  /// before the producer exists (the edge activates when it is defined).
  /// New nodes start dirty. Redefining an existing node also marks it
  /// dirty, so it re-runs on the next run(), but keeps the stored hash:
  /// a product that comes out unchanged still cuts off propagation.
  void define(const std::string& id, ProductKind kind,
              std::vector<std::string> deps, Rebuild rebuild);

  /// Remove a node (dependents keep their edge declarations; a dangling
  /// edge is inert until the id is defined again). Returns false when the
  /// id is unknown.
  bool remove(const std::string& id);

  [[nodiscard]] bool contains(std::string_view id) const;
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t count(ProductKind kind) const;

  /// Ids currently defined, sorted (stable for tests/introspection).
  [[nodiscard]] std::vector<std::string> ids() const;
  [[nodiscard]] std::vector<std::string> ids(ProductKind kind) const;

  /// Last computed content hash (0 before the first rebuild).
  [[nodiscard]] std::uint64_t hash_of(std::string_view id) const;
  [[nodiscard]] bool is_dirty(std::string_view id) const;

  void mark_dirty(const std::string& id);
  void mark_all_dirty();

  /// Process every dirty node in dependency order; propagate dirtiness to
  /// dependents when a hash changes; repeat until the graph settles
  /// (rebuild callbacks may define/remove nodes mid-run). The plan is
  /// computed once per topology: runs reuse it until a define() or
  /// remove() moves the topology. Throws navsep::SemanticError on a
  /// dependency cycle. A node whose rebuild throws stays dirty with its
  /// previous hash (its product was not rebuilt), as does every dirty
  /// node the run had not reached, so the next run rebuilds exactly
  /// those; the exception propagates to the caller.
  RebuildReport run();

 private:
  struct Node {
    ProductKind kind = ProductKind::Source;
    std::vector<std::string> deps;
    Rebuild rebuild;
    std::uint64_t hash = 0;
    bool dirty = true;
  };

  /// A topology's plan: topological order (producers first) plus the
  /// reverse-edge index for O(out-degree) dirty propagation. Ids are
  /// copied out of the node map so rebuild callbacks may define/remove
  /// nodes without invalidating the iteration.
  struct Plan {
    std::vector<std::string> order;
    std::map<std::string, std::vector<std::string>, std::less<>> dependents;
  };
  [[nodiscard]] Plan plan() const;

  /// The plan for the current topology: plan_ when it is still current,
  /// else a fresh one (recorded as a build.plan span and counted).
  [[nodiscard]] std::shared_ptr<const Plan> current_plan();

  std::map<std::string, Node, std::less<>> nodes_;
  /// Bumped by define()/remove(); run() aborts a pass and replans when it
  /// moves (a same-size swap of nodes would evade a size check).
  std::uint64_t topology_revision_ = 0;
  /// The last plan computed and the topology revision it was computed
  /// at. A pass holds its own reference, so a callback that moves the
  /// topology mid-pass cannot free the plan the pass is walking.
  std::shared_ptr<const Plan> plan_;
  std::uint64_t plan_revision_ = 0;
  obs::Registry* telemetry_ = nullptr;  // non-owning; see set_telemetry
  obs::Counter* plans_ = nullptr;       // telemetry_'s build.plans
  std::uint64_t epoch_hint_ = 0;
};

}  // namespace navsep::nav
