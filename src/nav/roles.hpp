// Role-segregated navigation interfaces — the public face of navsep.
//
// The paper separates navigation from content; this header separates the
// *consumers* of navigation from each other (Interface Segregation). The
// old surface tangled three audiences into two god classes
// (site::Browser, site::HypermediaServer); each audience now gets exactly
// the members it uses:
//
//   Navigating      — what 98% of callers need: follow links, move.
//   SessionView     — read-only observation: history, counters.
//   EngineInternals — framework-only: weaving hooks, arc tables,
//                     mutations. Application code should never touch this.
//
// site::Browser keeps its concrete API (existing code and tests are
// untouched); BrowserSession (session.hpp) adapts it to the first two
// roles, and nav::Engine (pipeline.hpp) implements the third.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/buildgraph.hpp"
#include "nav/landmarks.hpp"
#include "nav/profile.hpp"
#include "nav/route.hpp"

namespace navsep::aop {
class Weaver;
}
namespace navsep::hypermedia {
class ContextFamily;
}
namespace navsep::obs {
class Registry;
}
namespace navsep::serve {
class SnapshotStore;
}
namespace navsep::xlink {
struct Arc;
class TraversalGraph;
}  // namespace navsep::xlink

namespace navsep::nav {

/// The end-user role: actuate XLink arcs and move through the site.
class Navigating {
 public:
  virtual ~Navigating() = default;

  /// Fetch a URI (absolute, or resolved against the current location /
  /// site base). `false` on 404.
  virtual bool navigate(std::string_view uri_ref) = 0;

  /// Actuate one arc (show=none / actuate=none arcs are refused).
  virtual bool follow(const xlink::Arc& arc) = 0;

  /// Follow the first outgoing arc whose arcrole is `role` (with or
  /// without the "nav:" prefix).
  virtual bool follow_role(std::string_view role) = 0;

  virtual bool back() = 0;
  virtual bool forward() = 0;

  [[nodiscard]] virtual const std::string& location() const noexcept = 0;
  [[nodiscard]] virtual const std::string* page() const noexcept = 0;

  /// Arcs leaving the current resource, linkbase order.
  [[nodiscard]] virtual const std::vector<const xlink::Arc*>& links()
      const noexcept = 0;
};

/// The observer role: read-only session state. Dashboards, tests and
/// audit aspects consume this; nothing here can mutate the session.
class SessionView {
 public:
  virtual ~SessionView() = default;

  /// Every location navigated to, in order.
  [[nodiscard]] virtual const std::vector<std::string>& history()
      const noexcept = 0;
  [[nodiscard]] virtual std::size_t pages_visited() const noexcept = 0;

  /// Base-layer counters of the engine's server() (GETs and 404s). These
  /// are engine-global: the server is shared, so every consumer (this
  /// session, open_browser() browsers, direct server().get() calls)
  /// contributes to them.
  [[nodiscard]] virtual std::size_t requests() const noexcept = 0;
  [[nodiscard]] virtual std::size_t misses() const noexcept = 0;
};

/// The framework role: the machinery under the façade. Only
/// infrastructure code (benchmarks, custom aspects, site rebuilds)
/// should reach for this — it is deliberately not reachable from
/// Navigating/SessionView.
class EngineInternals {
 public:
  virtual ~EngineInternals() = default;

  /// The weaver every page composition runs through. Register aspects
  /// here, then rebuild() to re-weave the site with them applied.
  [[nodiscard]] virtual aop::Weaver& weaver() noexcept = 0;

  /// The expanded arc table the browser traverses (per-source indexed).
  [[nodiscard]] virtual const xlink::TraversalGraph& arc_table()
      const noexcept = 0;

  /// Re-compose every page (after registering extra aspects or mutating
  /// the site) and publish the result as a new epoch. The
  /// force-everything path — and the correctness oracle of the
  /// incremental mutations below: their output must be byte-identical to
  /// what a rebuild() from scratch produces.
  virtual void rebuild() = 0;

  // --- incremental mutations (run the build graph, not a full rebuild) --------
  //
  // Each entry point edits the authored navigation design — the paper's
  // §5 change request, live — marks the affected build-graph nodes dirty
  // and runs the graph: only linkbases whose text changed are re-authored,
  // only pages whose arc slice changed are re-woven, and the result is
  // published as one new epoch of snapshots(), the only thing server()
  // serves. The returned report says what it cost.
  //
  // Mutations are writer-side: callers must externally synchronize them
  // against readers of site(), arc_table() and the engine's session
  // (same contract as rebuild()); server() and open_concurrent() servers
  // read published epochs and need no synchronization. A mutation that
  // throws publishes nothing, so they keep serving the last epoch, and
  // the next graph run re-runs every node: the next successful mutation
  // converges to what rebuild() would produce, even when it repeats the
  // failed edit. Browsers obtained from open_browser() must refresh()
  // after a mutation; the engine's own session is refreshed
  // automatically, on the throwing path too.

  /// Swap the whole access structure (Index → IndexedGuidedTour...).
  virtual RebuildReport set_access_structure(
      std::unique_ptr<hypermedia::AccessStructure> structure) = 0;

  /// Swap only the *kind*, keeping the current member list — the paper's
  /// change request verbatim.
  virtual RebuildReport set_access_structure(
      hypermedia::AccessStructureKind kind) = 0;

  /// Append a navigational-model node to the member list; its page is
  /// woven and the structure's arcs regenerate around it. Throws
  /// ResolutionError for unknown node ids, SemanticError for duplicates.
  virtual RebuildReport add_node(std::string_view node_id) = 0;

  /// Change a member's navigation label (anchor text). A purely
  /// navigational edit: only pages with anchors referencing the member
  /// are re-woven — the member's own content is untouched.
  virtual RebuildReport retitle_node(std::string_view node_id,
                                     std::string_view title) = 0;

  /// Replace one authored arc (by index into authored_arcs()). The
  /// finest-grained edit: typically exactly one page re-weaves.
  /// NOTE: structural mutations (set_access_structure(kind) / add_node /
  /// retitle_node) regenerate the arc set from the structure kind and
  /// discard earlier replace_arc overlays. For a Menu adopted from a
  /// constructed hypermedia::Menu the engine captures the sub-structure
  /// specs as build-graph inputs, so these mutations regenerate the
  /// Menu's derived arcs (retitle_node edits the sub holding the member,
  /// add_node appends to the last sub, set_access_structure(Menu)
  /// refreshes from the captured subs). A Menu the engine cannot see
  /// into — nested Menus, or a pre-materialized snapshot — stays opaque
  /// and Menu-kind regeneration throws SemanticError without moving any
  /// state (set_access_structure(structure) and replace_arc always
  /// work).
  virtual RebuildReport replace_arc(std::size_t index,
                                    hypermedia::AccessArc arc) = 0;

  /// The authored arc set as currently materialized (index space of
  /// replace_arc).
  [[nodiscard]] virtual std::vector<hypermedia::AccessArc> authored_arcs()
      const = 0;

  /// The dependency graph behind the incremental path (introspection).
  [[nodiscard]] virtual const BuildGraph& build_graph() const noexcept = 0;

  /// The epoch-published snapshot store behind concurrent serving: every
  /// successful mutation (and rebuild()) publishes a new immutable site
  /// snapshot here. Concurrent readers go through a
  /// serve::ConcurrentServer over this store — the engine's server() or
  /// one from open_concurrent(), never the writer-side site() — and are
  /// wait-free with respect to mutations.
  [[nodiscard]] virtual const serve::SnapshotStore& snapshots()
      const noexcept = 0;

  // --- the family namespace ---------------------------------------------------
  //
  // Context families, route programs (Aot and Lazy) and landmark families
  // ("landmarks", plus "landmarks-<profile>" under per_profile) share one
  // namespace. Each name is a family name profiles can list, and it
  // claims the artifact path links-<lowercased name>.xml. A name must be
  // non-empty and free of ':' and newlines (it tags arcs '<name>:<kind>'),
  // and no two names may map to one path, so names differing only in
  // case clash. A call that would break this rule throws
  // navsep::SemanticError before moving any state: profiles, routes,
  // landmark families, artifacts and the epoch stay as they were.

  // --- serving profiles -------------------------------------------------------
  //
  // A Profile names the subset of the engine's context families its
  // audience navigates with; the concurrent serving path composes that
  // subset's tours onto base pages late, per request (see nav/profile.hpp
  // and serve::ConcurrentServer::get(uri, profile)). Registration is a
  // writer-side operation like every mutation.

  /// Register (or, by name, replace) a serving profile and publish a new
  /// snapshot carrying it. Throws navsep::SemanticError for an empty or
  /// newline-containing name, a family name the engine doesn't have, a
  /// duplicated family within the profile, any non-empty family list in
  /// Tangled mode (the tangled baseline has no separated navigation to
  /// scope), or, with per-profile landmarks on, a new profile whose
  /// landmark family breaks the family-namespace rule (a ':' in its
  /// name, or a path another family, route or landmark owns). No page
  /// is re-woven: profiles only select among already authored linkbases.
  virtual void register_profile(Profile profile) = 0;

  /// The registered profiles, in registration order.
  [[nodiscard]] virtual const std::vector<Profile>& profiles()
      const noexcept = 0;

  /// Edit one context family in place (the callback receives it mutable)
  /// and propagate: ONLY that family's contextual linkbase re-authors,
  /// no base page re-weaves (context-tagged tour arcs are not part of
  /// any stored page's arc slice), and on the serving side only overlay
  /// cache entries of profiles that include the family retire. Throws
  /// navsep::ResolutionError for an unknown family and
  /// navsep::SemanticError in Tangled mode. Writer-side; additionally,
  /// NavigationSessions over the engine's families must be quiesced
  /// (snapshot-based readers — ConcurrentServer, profile overlays — are
  /// unaffected).
  virtual RebuildReport edit_context_family(
      std::string_view family_name,
      const std::function<void(hypermedia::ContextFamily&)>& edit) = 0;

  // --- route programs ---------------------------------------------------------
  //
  // A RouteProgram (nav/route.hpp) declares a navigation source as a
  // route expression over arc roles and context families. Registered
  // programs become servable context families named after the program:
  // RouteCompile::Aot expands at mutation time into an authored
  // `links-<name>.xml` through the build graph (family edits dirty and
  // regenerate it); RouteCompile::Lazy ships only the program text and
  // expands inside each served snapshot on first touch — byte-identical
  // to the AOT path by the differential harness (tests/route_test.cpp).
  // Profiles may reference route names exactly like family names.

  /// Register (or, by name, replace) a route program. Throws
  /// navsep::ParseError for a malformed expression (naming the offending
  /// token), navsep::SemanticError for a name that breaks the
  /// family-namespace rule (against context families, other routes and
  /// landmark families) or any registration in Tangled mode.
  /// Writer-side; batch-aware like every mutation.
  virtual RebuildReport register_route(RouteProgram program) = 0;

  /// Replace the expression of the registered route `name`. Throws
  /// navsep::ResolutionError for an unknown route, navsep::ParseError
  /// for a malformed expression.
  virtual RebuildReport edit_route(std::string_view name,
                                   std::string_view expression) = 0;

  /// Unregister route `name` (its linkbase artifact, arcs and overlay
  /// entries retire). Throws navsep::ResolutionError when unknown.
  virtual RebuildReport remove_route(std::string_view name) = 0;

  /// The registered route programs, in registration order.
  [[nodiscard]] virtual const std::vector<RouteProgram>& routes()
      const noexcept = 0;

  /// The current expansion of registered route `name` as a context
  /// family (one `<name>:route` guided-tour context over the expanded
  /// node ids) — what the AOT path authors and the lazy path must match.
  /// Evaluated fresh against the current arc table on every call.
  /// Throws navsep::ResolutionError when unknown.
  [[nodiscard]] virtual hypermedia::ContextFamily route_family(
      std::string_view name) const = 0;

  // --- landmark synthesis -----------------------------------------------------
  //
  // Traffic intelligence, consumption side: observed workload traces
  // (obs::TraceAggregate) rank the site's hub pages, and the engine
  // authors the winners as generated landmark context families through
  // the normal build graph — "landmarks" for everyone, plus
  // "landmarks-<profile>" per registered profile when
  // LandmarkOptions::per_profile is set. Landmark families auto-attach
  // to every registered profile (the per-profile family only to its
  // own), author `links-landmarks[-<p>].xml` artifacts exactly like AOT
  // routes, and therefore ride snapshot replication unchanged.

  /// Enable (or re-rank with fresh traffic) landmark synthesis. Throws
  /// navsep::SemanticError in Tangled mode or when a landmark family
  /// would break the family-namespace rule: against a context family or
  /// route, or under per_profile a profile name with ':' or two profiles
  /// differing only in case ("Tour", "tour"). Writer-side; batch-aware
  /// like every mutation.
  virtual RebuildReport enable_landmarks(const obs::TraceAggregate& traffic,
                                         LandmarkOptions options) = 0;

  /// Retire every landmark family, artifact and overlay entry; detach
  /// landmark names from profiles. Idempotent when already disabled.
  virtual RebuildReport disable_landmarks() = 0;

  /// Names of the landmark families currently synthesized, base family
  /// first (empty when disabled).
  [[nodiscard]] virtual std::vector<std::string> landmark_families()
      const = 0;

  /// The current expansion of landmark family `name` — what the build
  /// graph authors and the full-build oracle must match. Evaluated
  /// fresh against the stored traffic and current arc inputs. Throws
  /// navsep::ResolutionError when unknown.
  [[nodiscard]] virtual hypermedia::ContextFamily landmark_family(
      std::string_view name) const = 0;

  /// The ranked picks behind landmark family `name` (diagnostics /
  /// reporting). Throws navsep::ResolutionError when unknown.
  [[nodiscard]] virtual std::vector<LandmarkScore> landmark_picks(
      std::string_view name) const = 0;

  // --- mutation batching ------------------------------------------------------
  //
  // An edit burst normally pays one plan, one graph run and one snapshot
  // publish PER mutation. A batch coalesces it: between begin_batch()
  // and commit_batch() every mutation validates eagerly and moves engine
  // state (later batched mutations and readers of structure()/
  // authored_arcs() see it immediately) but only accumulates dirty marks
  // — the graph does not run, nothing re-weaves, and no snapshot is
  // published, so batched mutations return an empty report. commit_batch
  // runs the graph once over the union of dirty marks and publishes
  // exactly one epoch — SnapshotStore subscribers and repl::Publishers
  // see ONE delta for the whole burst. Batches are writer-side state
  // like every mutation (no concurrent mutators).

  /// Open a batch. Throws navsep::SemanticError when one is open.
  virtual void begin_batch() = 0;

  /// Run the accumulated batch: one graph run (parallel when weave
  /// workers are configured), one published epoch — or none at all for
  /// an empty batch. The report carries edits_coalesced /
  /// epochs_published / weave_workers / max_parallel_weaves. Throws
  /// navsep::SemanticError when no batch is open. If a batched
  /// mutation's edit threw mid-flight the commit still reconciles
  /// whatever state moved, exactly like the unbatched propagate-on-throw
  /// contract.
  virtual RebuildReport commit_batch() = 0;

  /// Whether a batch is currently open.
  [[nodiscard]] virtual bool batch_open() const noexcept = 0;

  // --- parallel re-weave ------------------------------------------------------

  /// Configure the worker pool page re-weaves run on: `lanes` total
  /// execution lanes (0 = hardware concurrency, 1 = serial — the
  /// default). Output is byte-identical for every value; only wall-clock
  /// changes. The pool is only used when the weave path is provably
  /// thread-safe: Separated mode with no foreign aspects registered on
  /// the weaver (user advice carries no thread-safety contract, so
  /// engines with extra aspects fall back to the serial path and the
  /// report says so via weave_workers == 1).
  virtual void set_weave_workers(std::size_t lanes) = 0;

  /// The configured lane count (1 when serial).
  [[nodiscard]] virtual std::size_t weave_workers() const noexcept = 0;

  // --- telemetry --------------------------------------------------------------

  /// Attach a metrics registry (obs/registry.hpp). The engine registers
  /// server()'s metrics as `engine.server.*` gauges
  /// (serve::ConcurrentServer::register_metrics) and a pull sampler
  /// mirroring the snapshot store's epoch/publishes into `store.*`
  /// gauges, counts every graph run into `build.*` counters, feeds wave
  /// occupancy into a histogram, and records epoch-correlated spans
  /// (build.plan / build.wave.compute / build.wave.commit /
  /// build.publish) into the registry's SpanLog. Pass nullptr to detach.
  /// The registry must outlive the engine or be detached first;
  /// attaching is writer-side state like every mutation.
  virtual void attach_telemetry(std::shared_ptr<obs::Registry> registry) = 0;

  /// The attached registry (nullptr when telemetry is off).
  [[nodiscard]] virtual obs::Registry* telemetry() const noexcept = 0;
};

}  // namespace navsep::nav
