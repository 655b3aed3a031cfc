// The incremental rebuild engine's dependency graph.
//
// Every authored product of the separated-navigation pipeline — the
// navigation spec, each route or landmark program, each linkbase
// document, the merged arc table — becomes a node with explicit
// dependency edges, a content hash and a dirty bit. A mutation marks its
// source node dirty; run() walks the graph in dependency order, rebuilds
// dirty nodes, and propagates dirtiness to dependents ONLY when a node's
// content hash actually changed (early cutoff, the classic
// incremental-build trick). An edit whose downstream products hash the
// same stops dead. Pages are not nodes: the arc-table node's rebuild
// re-weaves exactly the pages whose arc slice moved (nav/pipeline.cpp).
//
// The graph is a mechanism, not a policy: nodes are (kind, deps,
// rebuild-callback) and the engine (nav/pipeline.cpp) wires the domain.
// The topology is fixed while a run is in flight: run() makes one pass
// over a plan computed at its start, and define()/remove() from a
// rebuild callback throw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace navsep::obs {
class Registry;
}

namespace navsep::nav {

/// What a node produces. Source nodes are mutation entry points; the
/// rest name pipeline products. run() counts the Linkbase nodes whose
/// hash changed in RebuildReport::linkbases_reauthored.
enum class ProductKind {
  Source,     // authored inputs: the navigation spec
  Route,      // one registered route program (name + canonical expression)
  Landmark,   // one landmark synthesis program (name + options + traffic)
  Linkbase,   // one authored linkbase document (links*.xml)
  ArcTable,   // the merged traversal graph + the arc chunks + woven pages
};

/// What one run() did — the observable cost of a mutation. The paper's
/// change-impact asymmetry (bench/e1) counts authored artifacts touched;
/// this is its runtime companion: pages_rewoven / pages_total is the
/// fraction of the site the edit actually re-wove.
struct RebuildReport {
  std::size_t nodes_dirty = 0;     ///< nodes processed as dirty
  std::size_t nodes_rebuilt = 0;   ///< rebuild callbacks run
  std::size_t nodes_changed = 0;   ///< rebuilds whose content hash changed
  std::size_t linkbases_reauthored = 0;  ///< Linkbase nodes whose text changed

  // --- set by the engine, not run() -------------------------------------------
  /// Pages the arc-table rebuild re-wove.
  std::size_t pages_rewoven = 0;
  /// Pages the site has after the run.
  std::size_t pages_total = 0;
  /// Mutations coalesced into this run (1 for an unbatched mutation, the
  /// batch size for Engine::commit_batch).
  std::size_t edits_coalesced = 0;
  /// Snapshot epochs this run published (1 per unbatched mutation or
  /// non-empty batch commit, 0 for an empty batch).
  std::size_t epochs_published = 0;

  /// pages_rewoven / pages_total (0 when the site is empty).
  [[nodiscard]] double reweave_ratio() const noexcept {
    return pages_total == 0
               ? 0.0
               : static_cast<double>(pages_rewoven) /
                     static_cast<double>(pages_total);
  }
};

class BuildGraph {
 public:
  /// Point graph-run telemetry at `registry` (nullptr = off, the
  /// default): every run() then records the plan it computes as an
  /// epoch-correlated build.plan span in the registry's SpanLog. The
  /// registry must outlive the graph or be detached first. Non-owning on
  /// purpose: the engine owns the shared_ptr, the graph just reports
  /// into it.
  void set_telemetry(obs::Registry* registry) noexcept {
    telemetry_ = registry;
  }

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
  /// Throws navsep::SemanticError while run() is in flight (from a
  /// rebuild callback): the topology is fixed during a run.
  void define(const std::string& id, ProductKind kind,
              std::vector<std::string> deps, Rebuild rebuild);

  /// Remove a node (dependents keep their edge declarations; a dangling
  /// edge is inert until the id is defined again). Returns false when the
  /// id is unknown. Throws navsep::SemanticError while run() is in
  /// flight, like define().
  bool remove(const std::string& id);

  [[nodiscard]] bool contains(std::string_view id) const;
  [[nodiscard]] std::size_t count(ProductKind kind) const;

  /// Ids of the nodes of `kind`, sorted.
  [[nodiscard]] std::vector<std::string> ids(ProductKind kind) const;

  /// Last computed content hash (0 before the first rebuild).
  [[nodiscard]] std::uint64_t hash_of(std::string_view id) const;
  [[nodiscard]] bool is_dirty(std::string_view id) const;

  void mark_dirty(const std::string& id);
  void mark_all_dirty();

  /// Plan the graph, then process every dirty node once, in dependency
  /// order, propagating dirtiness to dependents when a hash changes.
  /// Throws navsep::SemanticError on a dependency cycle. A node whose
  /// rebuild throws stays dirty with its previous hash (its product was
  /// not rebuilt), as does every dirty node the run had not reached, so
  /// the next run rebuilds exactly those; the exception propagates to
  /// the caller.
  RebuildReport run();

 private:
  struct Node {
    ProductKind kind = ProductKind::Source;
    std::vector<std::string> deps;
    Rebuild rebuild;
    std::uint64_t hash = 0;
    bool dirty = true;
  };

  /// One run's plan over the nodes in map order: `order` lists node
  /// indices producers first, `dependents[i]` the nodes that read node
  /// i. The pointers stay valid for the run, whose topology is fixed.
  struct Plan {
    std::vector<Node*> nodes;
    std::vector<std::vector<std::size_t>> dependents;
    std::vector<std::size_t> order;
  };
  [[nodiscard]] Plan plan();

  std::map<std::string, Node, std::less<>> nodes_;
  bool running_ = false;                // run() in flight
  obs::Registry* telemetry_ = nullptr;  // non-owning; see set_telemetry
  std::uint64_t epoch_hint_ = 0;
};

}  // namespace navsep::nav
