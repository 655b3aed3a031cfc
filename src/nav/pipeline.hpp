// SitePipeline: one fluent API from the conceptual model to a woven,
// served, browsable site — the pipeline every example used to hand-wire
// in ~30 lines of object juggling:
//
//   auto engine = nav::SitePipeline()
//                     .conceptual(museum::MuseumWorld::paper_instance())
//                     .schema()
//                     .access(AccessStructureKind::IndexedGuidedTour,
//                             "picasso")
//                     .contexts({"ByAuthor"})
//                     .weave()
//                     .serve("http://museum.example/site/");
//   engine->navigator().navigate("guitar.html");
//
// The returned Engine owns everything the pipeline produced — conceptual
// world, navigational model, access structure, context families, woven
// VirtualSite, server, linkbase documents and their traversal graph —
// with one lifetime instead of five raw-pointer-aliased locals.
// Applications see it through the role interfaces of roles.hpp
// (navigator() / session()); the framework — custom aspects, mutations,
// batching, telemetry — calls the Engine's own members.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <cstdint>
#include <map>

#include "aop/weaver.hpp"
#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "hypermedia/navigational.hpp"
#include "museum/museum.hpp"
#include "nav/buildgraph.hpp"
#include "nav/landmarks.hpp"
#include "nav/profile.hpp"
#include "nav/roles.hpp"
#include "nav/route.hpp"
#include "obs/registry.hpp"
#include "nav/session.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/snapshot.hpp"
#include "site/browser.hpp"
#include "site/session.hpp"
#include "site/virtual_site.hpp"
#include "xlink/traversal.hpp"
#include "xml/dom.hpp"

namespace navsep::repl {
class Publisher;
struct PublisherOptions;
struct Endpoint;
}  // namespace navsep::repl

namespace navsep::nav {

/// The running result of a SitePipeline: site + server + traversal graph
/// + weaver under one owner. Create through SitePipeline::serve().
///
/// Applications need only navigator() and session(). Every member from
/// weaver() on is the framework's: the machinery under the façade, for
/// infrastructure code (benchmarks, custom aspects, site rebuilds).
class Engine final {
 public:
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() = default;

  // --- role-segregated views --------------------------------------------------

  /// The end-user face (98% of callers need nothing else).
  [[nodiscard]] Navigating& navigator() noexcept { return *session_; }

  /// Read-only observation of the primary session.
  [[nodiscard]] const SessionView& session() const noexcept {
    return *session_;
  }

  /// The engine itself. Kept, like the EngineInternals alias below the
  /// class, only because the benchmark harness (navbench/) still spells
  /// both; everything else calls the members directly.
  [[nodiscard]] Engine& internals() noexcept { return *this; }

  // --- pipeline artifacts (read-only) -----------------------------------------

  /// The conceptual model (OOHDM layer 1) the pipeline started from.
  [[nodiscard]] const museum::MuseumWorld& world() const noexcept {
    return *world_;
  }
  /// The derived navigational model (OOHDM layer 2).
  [[nodiscard]] const hypermedia::NavigationalModel& navigation()
      const noexcept {
    return *nav_;
  }
  /// The access structure currently served (mutations replace it).
  [[nodiscard]] const hypermedia::AccessStructure& structure() const noexcept {
    return *structure_;
  }
  /// The configured context families (paper §2), in weave order.
  [[nodiscard]] const std::vector<hypermedia::ContextFamily>&
  context_families() const noexcept {
    return families_;
  }
  /// The woven artifact store (writer-side view).
  [[nodiscard]] const site::VirtualSite& site() const noexcept { return site_; }
  /// The engine's own concurrent server over snapshots(): it serves only
  /// published epochs, so it is safe for any number of reader threads
  /// while this engine mutates, and a mutation that throws leaves it
  /// serving the last epoch. navigator(), session() and open_browser()
  /// read through it.
  [[nodiscard]] const serve::ConcurrentServer& server() const noexcept {
    return *server_;
  }

  // --- additional consumers over the same site --------------------------------

  /// An independent XLink browser (own history/location) over the engine's
  /// server (published epochs) and arc table. The engine must outlive it.
  [[nodiscard]] site::Browser open_browser() const;

  /// A context-aware navigation session over the engine's families; join
  /// points are announced through the engine's weaver.
  [[nodiscard]] site::NavigationSession open_session() const;

  /// A concurrent read server over the engine's published snapshots (see
  /// snapshots()): safe for any number of reader threads while this
  /// engine keeps mutating on its (single) writer thread. The engine
  /// must outlive it.
  [[nodiscard]] std::unique_ptr<serve::ConcurrentServer> open_concurrent(
      std::size_t cache_shards = 16) const;

  /// As above with bounded cache layers: `limits` caps the entries each
  /// of the server's shards may hold (LRU eviction past the cap; zero
  /// degenerates to pass-through). See serve::CacheLimits.
  [[nodiscard]] std::unique_ptr<serve::ConcurrentServer> open_concurrent(
      std::size_t cache_shards, serve::CacheLimits limits) const;

  /// A replication publisher streaming this engine's published epochs to
  /// remote replicas at `endpoint` (repl::Endpoint::tcp / unix_socket /
  /// parse). It reads snapshots() exactly like a concurrent server —
  /// wait-free against this writer thread — so attaching replicas costs
  /// the mutation path nothing. The engine must outlive the publisher.
  [[nodiscard]] std::unique_ptr<repl::Publisher> open_publisher(
      const repl::Endpoint& endpoint) const;
  [[nodiscard]] std::unique_ptr<repl::Publisher> open_publisher(
      const repl::Endpoint& endpoint,
      const repl::PublisherOptions& options) const;

  /// Compose one node page on demand, inside an optional navigational
  /// context tag ("ByAuthor:picasso"), woven through the engine's
  /// weaver. Throws ResolutionError for unknown node ids. Writer-side
  /// like the mutations below: it shares the weaver's match cache and
  /// the engine's provenance scratch with the arc-table rebuild's page
  /// weaves.
  [[nodiscard]] std::string compose_page(
      std::string_view node_id, std::string_view context_tag = "") const;

  // --- framework: weaving and introspection -----------------------------------

  /// The weaver every page composition runs through. Register aspects
  /// here, then rebuild() to re-weave the site with them applied.
  [[nodiscard]] aop::Weaver& weaver() noexcept { return weaver_; }

  /// The expanded arc table the browser traverses (per-source indexed).
  [[nodiscard]] const xlink::TraversalGraph& arc_table() const noexcept {
    return graph_;
  }

  /// The dependency graph behind the incremental path (introspection).
  [[nodiscard]] const BuildGraph& build_graph() const noexcept {
    return build_graph_;
  }

  /// The epoch-published snapshot store behind concurrent serving: every
  /// successful mutation (and rebuild()) publishes a new immutable site
  /// snapshot here. Concurrent readers go through a
  /// serve::ConcurrentServer over this store — the engine's server() or
  /// one from open_concurrent(), never the writer-side site() — and are
  /// wait-free with respect to mutations.
  [[nodiscard]] const serve::SnapshotStore& snapshots() const noexcept {
    return snapshots_;
  }

  /// Re-compose every page (after registering extra aspects or mutating
  /// the site) and publish the result as a new epoch. The
  /// force-everything path — and the correctness oracle of the
  /// incremental mutations below: their output must be byte-identical to
  /// what a rebuild() from scratch produces. Batch-aware like every
  /// mutation.
  void rebuild();

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
  // throws publishes nothing, so they keep serving the last epoch. The
  // build-graph node that threw stays dirty, as does every node the run
  // had not reached, and a page weave that threw leaves that page and
  // the ones after it unwoven, so the next successful mutation re-runs
  // exactly what the failed run left unbuilt and converges to what
  // rebuild() would produce, even when it repeats the failed edit. Browsers
  // obtained from open_browser() must refresh() after a mutation; the
  // engine's own session is refreshed automatically, on the throwing
  // path too.

  /// Swap the whole access structure (Index → IndexedGuidedTour...).
  RebuildReport set_access_structure(
      std::unique_ptr<hypermedia::AccessStructure> structure);

  /// Swap only the *kind*, keeping the current member list — the paper's
  /// change request verbatim.
  RebuildReport set_access_structure(hypermedia::AccessStructureKind kind);

  /// Append a navigational-model node to the member list; its page is
  /// woven and the structure's arcs regenerate around it. Throws
  /// ResolutionError for unknown node ids, SemanticError for duplicates.
  RebuildReport add_node(std::string_view node_id);

  /// Change a member's navigation label (anchor text). A purely
  /// navigational edit: only pages with anchors referencing the member
  /// are re-woven — the member's own content is untouched.
  RebuildReport retitle_node(std::string_view node_id, std::string_view title);

  /// Replace one authored arc (by index into authored_arcs()). The
  /// finest-grained edit: typically exactly one page re-weaves.
  /// NOTE: structural mutations (set_access_structure(kind) / add_node /
  /// retitle_node) regenerate the arc set from the structure kind and
  /// discard earlier replace_arc overlays. For a Menu adopted from a
  /// constructed hypermedia::Menu the engine captures the sub-structure
  /// specs, so these mutations regenerate the Menu's derived arcs
  /// (retitle_node edits the sub holding the member, add_node appends to
  /// the last sub, set_access_structure(Menu) refreshes from the captured
  /// subs). A Menu the engine cannot see into — nested Menus, or a
  /// pre-materialized snapshot — stays opaque and Menu-kind regeneration
  /// throws SemanticError without moving any state
  /// (set_access_structure(structure) and replace_arc always work).
  RebuildReport replace_arc(std::size_t index, hypermedia::AccessArc arc);

  /// The authored arc set as currently materialized (index space of
  /// replace_arc).
  [[nodiscard]] std::vector<hypermedia::AccessArc> authored_arcs() const {
    return structure_->arcs();
  }

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
  /// duplicated family within the profile, or, with per-profile
  /// landmarks on, a new profile whose landmark family breaks the
  /// family-namespace rule (a ':' in its name, or a path another
  /// family, route or landmark owns). No page
  /// is re-woven: profiles only select among already authored linkbases,
  /// so the graph run behind the publish finds nothing dirty unless the
  /// profile brings a new per-profile landmark family. Batch-aware like
  /// every mutation.
  void register_profile(Profile profile);

  /// The registered profiles, in registration order.
  [[nodiscard]] const std::vector<Profile>& profiles() const noexcept {
    return profiles_;
  }

  /// Edit one context family in place (the callback receives it mutable)
  /// and propagate: ONLY that family's contextual linkbase re-authors,
  /// no base page re-weaves (context-tagged tour arcs are not part of
  /// any stored page's arc slice), and on the serving side only overlay
  /// cache entries of profiles that include the family retire. Throws
  /// navsep::ResolutionError for an unknown family. Writer-side;
  /// additionally, NavigationSessions over the engine's families must be
  /// quiesced (snapshot-based readers — ConcurrentServer, profile
  /// overlays — are unaffected).
  RebuildReport edit_context_family(
      std::string_view family_name,
      const std::function<void(hypermedia::ContextFamily&)>& edit);

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
  /// landmark families). Writer-side; batch-aware like every mutation.
  RebuildReport register_route(RouteProgram program);

  /// Replace the expression of the registered route `name`. Throws
  /// navsep::ResolutionError for an unknown route, navsep::ParseError
  /// for a malformed expression.
  RebuildReport edit_route(std::string_view name, std::string_view expression);

  /// Unregister route `name`: its linkbase artifact, arcs and overlay
  /// entries retire, and every profile that listed it drops the name in
  /// the same epoch. Throws navsep::ResolutionError when unknown.
  RebuildReport remove_route(std::string_view name);

  /// The registered route programs, in registration order.
  [[nodiscard]] const std::vector<RouteProgram>& routes() const noexcept {
    return route_programs_;
  }

  /// The current expansion of registered route `name` as a context
  /// family (one `<name>:route` guided-tour context over the expanded
  /// node ids) — what the AOT path authors and the lazy path must match.
  /// Evaluated fresh against the current arc table on every call.
  /// Throws navsep::ResolutionError when unknown.
  [[nodiscard]] hypermedia::ContextFamily route_family(
      std::string_view name) const;

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
  /// navsep::SemanticError when a landmark family would break the
  /// family-namespace rule: against a context family or
  /// route, or under per_profile a profile name with ':' or two profiles
  /// differing only in case ("Tour", "tour"). Writer-side; batch-aware
  /// like every mutation.
  RebuildReport enable_landmarks(const obs::TraceAggregate& traffic,
                                 LandmarkOptions options);

  /// Retire every landmark family, artifact and overlay entry; detach
  /// landmark names from profiles. Idempotent when already disabled.
  RebuildReport disable_landmarks();

  /// Names of the landmark families currently synthesized, base family
  /// first (empty when disabled).
  [[nodiscard]] std::vector<std::string> landmark_families() const;

  /// The current expansion of landmark family `name` — what the build
  /// graph authors and the full-build oracle must match. Evaluated
  /// fresh against the stored traffic and current arc inputs. Throws
  /// navsep::ResolutionError when unknown.
  [[nodiscard]] hypermedia::ContextFamily landmark_family(
      std::string_view name) const;

  /// The ranked picks behind landmark family `name` (diagnostics /
  /// reporting). Throws navsep::ResolutionError when unknown.
  [[nodiscard]] std::vector<LandmarkScore> landmark_picks(
      std::string_view name) const;

  // --- mutation batching ------------------------------------------------------
  //
  // An edit burst normally pays one plan, one graph run and one snapshot
  // publish PER mutation. A batch coalesces it: between begin_batch()
  // and commit_batch() every mutation validates eagerly and moves engine
  // state (later batched mutations and readers of structure()/
  // authored_arcs()/profiles() see it immediately) but only accumulates
  // dirty marks — the graph does not run, nothing re-weaves, and no
  // snapshot is published, so batched mutations return an empty report.
  // commit_batch runs the graph once over the union of dirty marks and
  // publishes exactly one epoch — SnapshotStore subscribers and
  // repl::Publishers see ONE delta for the whole burst. Batches are
  // writer-side state like every mutation (no concurrent mutators).

  /// Open a batch. Throws navsep::SemanticError when one is open.
  void begin_batch();

  /// Run the accumulated batch: one graph run, one published epoch — or
  /// none at all for an empty batch. A burst of profile registrations
  /// alone is a graph run with nothing dirty, then that one publish. The
  /// report carries edits_coalesced / epochs_published. Throws
  /// navsep::SemanticError when no batch is open. If a batched
  /// mutation's edit threw mid-flight the commit still reconciles
  /// whatever state moved, exactly like the unbatched propagate-on-throw
  /// contract.
  RebuildReport commit_batch();

  /// Whether a batch is currently open.
  [[nodiscard]] bool batch_open() const noexcept { return batch_open_; }

  // --- telemetry --------------------------------------------------------------

  /// Attach a metrics registry (obs/registry.hpp). The engine registers
  /// server()'s metrics as `engine.server.*` gauges
  /// (serve::ConcurrentServer::register_metrics) and a pull sampler
  /// mirroring the snapshot store's epoch/publishes into `store.*`
  /// gauges, counts every graph run into `build.*` counters (every
  /// publish has one, so `build.runs` counts profile registrations and
  /// batch commits too), and records epoch-correlated spans (build.run /
  /// build.plan / build.publish) into the registry's SpanLog.
  /// Pass nullptr to detach. The registry must outlive the engine or be
  /// detached first; attaching is writer-side state like every mutation.
  void attach_telemetry(std::shared_ptr<obs::Registry> registry);

  /// The attached registry (nullptr when telemetry is off).
  [[nodiscard]] obs::Registry* telemetry() const noexcept {
    return telemetry_.get();
  }

  // --- weave provenance -------------------------------------------------------

  /// Anchors woven into `page_id` when its page was last (re)composed by
  /// the build graph, with the authored arc each one came from. Null for
  /// unknown/never-woven pages.
  [[nodiscard]] const std::vector<core::AnchorProvenance>* provenance_for(
      std::string_view page_id) const;

 private:
  friend class SitePipeline;
  Engine() = default;

  /// The page ids the current structure wants woven: one per member whose
  /// nav node exists, plus the structure's own page.
  [[nodiscard]] std::vector<std::string> desired_page_ids() const;

  void wire_graph();
  [[nodiscard]] std::uint64_t rebuild_spec();

  /// The arc-table node's rebuild: merge the records' graphs, hand their
  /// chunks to the weaver, then re-weave, in page-id order, exactly the
  /// pages whose context-free slice hash differs from the one in
  /// woven_at_. Returns the table hash.
  [[nodiscard]] std::uint64_t rebuild_arc_table();

  /// Bring woven_at_ in step with desired_page_ids(): new pages enter
  /// unwoven; retired pages leave with their artifact and provenance.
  void sync_pages();

  /// Compose page `page_id` through weaver_, record the anchors the
  /// aspect logged into weave_provenance_ as its provenance, and install
  /// the text unless it is unchanged.
  void weave_page(const std::string& page_id);

  /// Snapshot structure_ into a MaterializedStructure (idempotent) so
  /// arc-level edits have a mutable substrate.
  hypermedia::MaterializedStructure& materialized_spec();

  /// Regenerate the structure from `kind` over `members` (a Menu from
  /// menu_subs_ instead), then run the graph — the shared tail of the
  /// structural mutations.
  RebuildReport regenerate_structure(hypermedia::AccessStructureKind kind,
                                     std::vector<hypermedia::Member> members);

  /// Mark the spec dirty, run the graph, refresh the session browser.
  RebuildReport run_graph_after_mutation();

  /// Run the graph now, publish one snapshot, refresh the session
  /// browser — or, with a batch open, record the edit and defer all of
  /// it to commit_batch(). A run that throws publishes nothing but still
  /// refreshes the session. Every
  /// entry point that publishes ends here: mutations, rebuild(),
  /// register_profile() and commit_batch().
  RebuildReport run_or_defer();
  RebuildReport run_graph_now();

  // --- Menu-aware mutations ---------------------------------------------------

  /// One captured Menu sub-structure: enough declarative state to
  /// regenerate the sub (and with it the Menu's derived arcs) after a
  /// member-level edit. Captured when a constructed hypermedia::Menu is
  /// adopted; empty for every other structure — including Menus the
  /// engine cannot see into (nested Menus, pre-materialized snapshots),
  /// which stay opaque and keep the old SemanticError guard.
  struct MenuSubSpec {
    hypermedia::AccessStructureKind kind;
    std::string name;
    std::vector<hypermedia::Member> members;
    bool circular = false;  // GuidedTour subs only
  };

  /// Capture (or clear) menu_subs_ from a freshly adopted structure.
  void adopt_structure_shape(const hypermedia::AccessStructure& structure);

  /// Reconstruct the Menu from the captured subs (kind/name/members/
  /// circular — the same inputs make_access_structure regenerates every
  /// other kind from).
  [[nodiscard]] std::unique_ptr<hypermedia::AccessStructure> regenerate_menu()
      const;

  // --- linkbase records ---------------------------------------------------------

  /// Where a linkbase record's document comes from: core::build_linkbase
  /// over the structure, or core::build_context_linkbase over a context
  /// family, a route expansion or the landmark picks.
  enum class LinkbaseKind { Structure, Family, Route, Landmark };

  /// One linkbase the engine authors (DESIGN.md, "Generated linkbases").
  /// Every kind shares one author-and-install step and one graph sync;
  /// only how the document is produced differs.
  struct LinkbaseRecord {
    std::string name;  // family/route/landmark name; "" for the structure
    std::string path;  // site path, also the NavArc::source of its arcs
    LinkbaseKind kind = LinkbaseKind::Structure;
    std::unique_ptr<xml::Document> doc;  // null until first authored
    xlink::TraversalGraph graph;         // points into doc
    /// The arcs of `graph`; null until first authored, replaced only
    /// when the text changes, shared by the arc table and snapshots.
    std::shared_ptr<const core::ArcChunk> chunk;
  };

  /// Author linkbase `path`'s document, serialize and hash it, and only
  /// when the text changed reload the record's graph, build its chunk and
  /// install the text — the one author-and-install step every record
  /// kind shares. The Linkbase build-graph node's rebuild.
  [[nodiscard]] std::uint64_t install_linkbase(const std::string& path);

  /// The record named `name` of kind `kind`, or null.
  [[nodiscard]] const LinkbaseRecord* find_linkbase(std::string_view name,
                                                    LinkbaseKind kind) const;

  /// Refuse (SemanticError, prefixed by `caller`) a call that would leave
  /// `routes` and the landmark families `landmarks` registered beside
  /// the context families with an invalid name or two names mapping to
  /// one artifact path — the family-namespace rule above. Callers
  /// pass the state the call would produce and run this before moving
  /// any of it.
  void check_namespace(std::string_view caller,
                       const std::vector<RouteProgram>& routes,
                       const std::vector<std::string>& landmarks) const;

  /// Rebuild the generated tail of linkbases_ (AOT routes, then landmark
  /// families) from route_programs_ and the landmark spec — keeping the
  /// documents of records that survive and retiring the artifacts of
  /// those that do not — then reconcile the build graph's program nodes
  /// (`route:<name>`, `landmark:<name>`) and Linkbase nodes with it and
  /// re-point the arc-table node. Returns true when the graph topology
  /// changed.
  bool sync_linkbases();

  // --- route programs ---------------------------------------------------------

  /// Index into route_programs_, npos when unknown.
  [[nodiscard]] std::size_t route_index(std::string_view name) const;

  /// The chunks route expansion and landmark scoring evaluate over: the
  /// structure and family records' (weave order), never a generated
  /// linkbase's.
  [[nodiscard]] core::ArcChunks authored_chunks() const;

  /// Refresh route_table_ from route_programs_ + the model's titles,
  /// preserving pointer identity when nothing changed.
  void refresh_route_table();

  // --- landmark synthesis -----------------------------------------------------

  /// Attach the current landmark families to the registered profiles
  /// (the base family to all, each per-profile family to its own) and
  /// detach names in `previous` that are no longer landmark families.
  void attach_landmark_families(const std::vector<std::string>& previous);

  /// Capture site_ + graph_ as the next epoch and install it in
  /// snapshots_ — the atomic hand-off from this (writer) thread to
  /// concurrent readers. Runs after every graph run, so readers always
  /// have a complete, never-torn site to acquire.
  void publish_snapshot();

  // Declaration order is destruction-order-sensitive: everything below
  // may point into what is above it.
  std::unique_ptr<museum::MuseumWorld> owned_world_;
  const museum::MuseumWorld* world_ = nullptr;
  std::optional<hypermedia::NavigationalModel> nav_;
  std::unique_ptr<hypermedia::AccessStructure> structure_;
  std::vector<hypermedia::ContextFamily> families_;
  std::string site_base_;
  /// Where the navigation aspect in weaver_ logs the anchors of the
  /// composition in flight (NavigationAspectOptions::provenance_log);
  /// weave_page moves it into provenance_. Mutable because
  /// compose_page() weaves too.
  mutable std::vector<core::AnchorProvenance> weave_provenance_;
  mutable aop::Weaver weaver_;
  site::VirtualSite site_;

  // Parsed linkbases, in merge order: the structure, the context families
  // (weave order), AOT routes (registration order), then landmark
  // families (base first). graph_ points into their documents, so they
  // are declared first (destroyed last). A document is only replaced
  // when its serialized text actually changed, which keeps graph element
  // pointers valid across no-op rebuilds.
  std::vector<LinkbaseRecord> linkbases_;

  /// Registered route programs (the routes() view). Aot routes also own
  /// a Route record in linkbases_; Lazy routes own none — their
  /// expansion lives in the served snapshots.
  std::vector<RouteProgram> route_programs_;

  /// Engaged iff landmark synthesis is enabled.
  std::optional<LandmarkOptions> landmark_options_;
  /// The traffic tables the current landmarks rank from (copied at
  /// enable time so re-ranking and diagnostics are reproducible).
  obs::TraceAggregate landmark_traffic_;

  xlink::TraversalGraph graph_;

  /// The arc set: every record's chunk, in merge order, as of the last
  /// arc-table rebuild — shared by the navigation aspect and every
  /// published snapshot, which read the chunks' page indexes and slice
  /// hashes.
  core::ArcChunks arc_chunks_;

  /// Registered serving profiles (see register_profile()).
  std::vector<Profile> profiles_;

  /// The route table published into snapshots (and onto the replication
  /// wire): programs + node-title export. Rebuilt by publish_snapshot();
  /// the previous value is kept when content-equal so unchanged tables
  /// keep pointer identity across epochs (the wire's carry-forward probe).
  std::shared_ptr<const serve::RouteTable> route_table_;

  /// Published site snapshots (self-contained: shared artifact bytes +
  /// value-copied arcs, no pointers into the members above).
  serve::SnapshotStore snapshots_;

  /// server() — points into snapshots_ — and the session reading
  /// through it.
  std::unique_ptr<serve::ConcurrentServer> server_;
  std::unique_ptr<site::Browser> browser_;
  std::unique_ptr<BrowserSession> session_;

  // --- incremental rebuild state ---------------------------------------------
  BuildGraph build_graph_;
  /// Every page the site has, by id, with the hash of the arcs its stored
  /// bytes were woven from (the context-free arcs leaving it); nullopt
  /// until it is woven. rebuild() resets them all, and the arc-table
  /// rebuild re-weaves every page whose entry differs from its slice.
  std::map<std::string, std::optional<std::uint64_t>, std::less<>> woven_at_;
  /// Pages the graph run in flight has re-woven (run_graph_now reports it).
  std::size_t pages_rewoven_ = 0;
  std::map<std::string, std::vector<core::AnchorProvenance>, std::less<>>
      provenance_;

  // --- batch state ------------------------------------------------------------
  bool batch_open_ = false;
  std::size_t batch_edits_ = 0;  // mutations coalesced so far

  // --- Menu sub-structure capture ---------------------------------------------
  std::vector<MenuSubSpec> menu_subs_;

  // --- telemetry --------------------------------------------------------------
  /// Attached registry (see attach_telemetry), the engine's store
  /// sampler and server_'s metrics registered on it. Handles declared
  /// after the registry and server_ so they unregister first on
  /// destruction.
  std::shared_ptr<obs::Registry> telemetry_;
  obs::SamplerHandle telemetry_sampler_;
  obs::SamplerHandle server_metrics_;
};

/// The Engine under its former interface name. Kept, with
/// Engine::internals, only because the benchmark harness (navbench/)
/// still spells it; everything else names nav::Engine.
using EngineInternals = Engine;

/// Fluent composer of the whole separated-navigation pipeline. Stages may
/// be set in any order; serve() / build() are terminal and consume the
/// pipeline (the world moves into the engine). Misconfiguration (no
/// conceptual model, no access structure, unknown context family) throws
/// navsep::SemanticError at the terminal call, not midway.
class SitePipeline {
 public:
  SitePipeline() = default;
  SitePipeline(SitePipeline&&) = default;
  SitePipeline& operator=(SitePipeline&&) = default;

  // --- stage 1: the conceptual model ------------------------------------------

  /// Own the world (the common case — the engine carries it).
  SitePipeline& conceptual(std::unique_ptr<museum::MuseumWorld> world);

  /// Borrow a world the caller keeps alive (sharing one across pipelines).
  SitePipeline& conceptual(const museum::MuseumWorld& world);

  /// Synthesize a deterministic world of the given size.
  SitePipeline& conceptual(const museum::SyntheticSpec& spec);

  /// The paper's exact museum (Picasso, Figures 3/4/7/8/9).
  SitePipeline& paper_museum();

  // --- stage 2: the navigational schema/model ---------------------------------

  /// Derive the navigational model from the conceptual one (OOHDM layer
  /// 2). Implied by serve()/build() when omitted.
  SitePipeline& schema();

  /// Use a pre-derived model (it must view the pipeline's world).
  SitePipeline& schema(hypermedia::NavigationalModel model);

  // --- stage 3: the access structure ------------------------------------------

  /// An access structure over every painting of the museum.
  SitePipeline& access(hypermedia::AccessStructureKind kind);

  /// An access structure over one painter's paintings (the paper's
  /// running example: "picasso").
  SitePipeline& access(hypermedia::AccessStructureKind kind,
                       std::string_view painter_id);

  /// A custom structure built elsewhere.
  SitePipeline& structure(
      std::unique_ptr<hypermedia::AccessStructure> structure);

  // --- stage 4: navigational contexts (paper §2) ------------------------------

  /// Context families to author and weave alongside the structure.
  /// Known names: "ByAuthor", "ByMovement".
  SitePipeline& contexts(std::vector<std::string> family_names);

  // --- stage 5: weaving ------------------------------------------------------

  /// A no-op: the engine always weaves separated navigation (linkbase +
  /// woven pages). Kept only because the benchmark harness (navbench/)
  /// still spells it. The tangled baseline the paper argues against is
  /// core::TangledRenderer / site::build_tangled_site.
  SitePipeline& weave();

  // --- terminals --------------------------------------------------------------

  /// Materialize everything and serve it: returns the running Engine.
  [[nodiscard]] std::unique_ptr<Engine> serve(
      std::string_view base = kDefaultBase);

  /// Materialize just the artifact set (no server/browser) — for writing
  /// a site to disk or diffing builds.
  [[nodiscard]] site::VirtualSite build(std::string_view base = kDefaultBase);

  static constexpr std::string_view kDefaultBase =
      "http://museum.example/site/";

 private:
  struct Materialized {
    std::unique_ptr<museum::MuseumWorld> owned_world;
    const museum::MuseumWorld* world = nullptr;
    std::optional<hypermedia::NavigationalModel> nav;
    std::unique_ptr<hypermedia::AccessStructure> structure;
    std::vector<hypermedia::ContextFamily> families;
  };
  [[nodiscard]] Materialized materialize();

  std::unique_ptr<museum::MuseumWorld> owned_world_;
  const museum::MuseumWorld* world_ = nullptr;
  std::optional<hypermedia::NavigationalModel> nav_;
  std::optional<hypermedia::AccessStructureKind> kind_;
  std::optional<std::string> scope_painter_;  // nullopt = all paintings
  std::unique_ptr<hypermedia::AccessStructure> structure_;
  std::vector<std::string> family_names_;
};

}  // namespace navsep::nav
