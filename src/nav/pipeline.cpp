#include "nav/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/linkbase.hpp"
#include "core/renderer.hpp"
#include "repl/publisher.hpp"
#include "serve/concurrent_server.hpp"

namespace navsep::nav {

namespace {

/// Build-graph node ids.
constexpr std::string_view kSpecNode = "nav:spec";
constexpr std::string_view kArcTableNode = "nav:arcs";

/// The structure linkbase's site path — also the NavArc::source tag of
/// its arcs and the snapshot's structure_source (one shared constant:
/// a drift would silently drop every structure arc from overlays).
constexpr std::string_view kStructureLinkbasePath =
    site::kStructureLinkbasePath;

std::string linkbase_node(std::string_view path) {
  return "linkbase:" + std::string(path);
}
std::string route_node(std::string_view name) {
  return "route:" + std::string(name);
}
std::string landmark_node(std::string_view name) {
  return "landmark:" + std::string(name);
}

/// Engine::route_index "not registered" sentinel.
constexpr std::size_t kNoRoute = static_cast<std::size_t>(-1);

/// The landmark families `options` asks for over `profiles`: the base
/// family, then one per profile in registration order when per_profile
/// is set (the landmark_families() contract). Empty when disabled.
std::vector<std::string> landmark_names(
    const std::optional<LandmarkOptions>& options,
    const std::vector<Profile>& profiles) {
  std::vector<std::string> names;
  if (!options.has_value()) return names;
  names.emplace_back(kLandmarkFamily);
  if (options->per_profile) {
    for (const Profile& profile : profiles) {
      names.push_back(std::string(kLandmarkFamily) + "-" + profile.name);
    }
  }
  return names;
}

/// The profile whose traffic ranks landmark family `name` — the inverse
/// of landmark_names(); "" (the global tables) for the base family.
std::string_view landmark_profile(std::string_view name) {
  return name.size() > kLandmarkFamily.size()
             ? name.substr(kLandmarkFamily.size() + 1)
             : std::string_view{};
}

std::uint64_t hash_str(std::uint64_t seed, std::string_view s) {
  return hash_combine(seed, hash_bytes(s));
}

}  // namespace

// --- Engine ------------------------------------------------------------------

site::Browser Engine::open_browser() const {
  return site::Browser(*server_, graph_);
}

site::NavigationSession Engine::open_session() const {
  std::vector<const hypermedia::ContextFamily*> families;
  families.reserve(families_.size());
  for (const auto& f : families_) families.push_back(&f);
  return site::NavigationSession(*nav_, std::move(families), &weaver_);
}

std::unique_ptr<serve::ConcurrentServer> Engine::open_concurrent(
    std::size_t cache_shards) const {
  return std::make_unique<serve::ConcurrentServer>(snapshots_, cache_shards);
}

std::unique_ptr<serve::ConcurrentServer> Engine::open_concurrent(
    std::size_t cache_shards, serve::CacheLimits limits) const {
  return std::make_unique<serve::ConcurrentServer>(snapshots_, cache_shards,
                                                   limits);
}

std::unique_ptr<repl::Publisher> Engine::open_publisher(
    const repl::Endpoint& endpoint) const {
  return open_publisher(endpoint, repl::PublisherOptions{});
}

std::unique_ptr<repl::Publisher> Engine::open_publisher(
    const repl::Endpoint& endpoint,
    const repl::PublisherOptions& options) const {
  return std::make_unique<repl::Publisher>(snapshots_,
                                           repl::Listener(endpoint), options);
}

std::string Engine::compose_page(std::string_view node_id,
                                 std::string_view context_tag) const {
  const hypermedia::NavNode* node = nav_->node(node_id);
  if (node == nullptr) {
    throw ResolutionError("compose_page: unknown node id '" +
                          std::string(node_id) + "'");
  }
  // The composition logs its anchors into the build graph's provenance
  // scratch; nothing records them for an on-demand page, so drop them
  // rather than let them accumulate across calls.
  std::string page =
      core::SeparatedComposer(weaver_).compose_node_page(*node, context_tag);
  weave_provenance_.clear();
  return page;
}

void Engine::rebuild() {
  // Forget what every page was woven at, so the arc-table rebuild
  // re-weaves them all (and newly registered aspects reach every page).
  for (auto& [_, woven] : woven_at_) woven.reset();
  build_graph_.mark_all_dirty();
  (void)run_or_defer();
}

// --- Engine: incremental mutation entry points --------------------------------

RebuildReport Engine::run_graph_after_mutation() {
  build_graph_.mark_dirty(std::string(kSpecNode));
  return run_or_defer();
}

RebuildReport Engine::run_or_defer() {
  if (batch_open_) {
    // The mutation already moved engine state and marked its nodes
    // dirty; the graph run, browser refresh and (single) publish all
    // wait for commit_batch().
    ++batch_edits_;
    return RebuildReport{};
  }
  RebuildReport report = run_graph_now();
  report.edits_coalesced = 1;
  report.epochs_published = 1;
  return report;
}

RebuildReport Engine::run_graph_now() {
  RebuildReport report;
  try {
    {
      // Spans recorded under this run (plan/publish) are all stamped
      // with the epoch the run is building toward, so one edit burst is
      // traceable end-to-end by epoch.
      const std::uint64_t target_epoch = snapshots_.epoch() + 1;
      build_graph_.set_epoch_hint(target_epoch);
      obs::ScopedSpan span(
          telemetry_ != nullptr ? &telemetry_->spans() : nullptr,
          "build.run", target_epoch);
      pages_rewoven_ = 0;
      report = build_graph_.run();
      report.pages_rewoven = pages_rewoven_;
      report.pages_total = woven_at_.size();
    }
    publish_snapshot();
  } catch (...) {
    // The node that threw stays dirty, as does everything the run had
    // not reached, so a retry of the same edit re-runs exactly what this
    // run left unbuilt and converges. The run may have rebuilt the arc
    // table before it threw, and the session's cached links() point into
    // the old one. Nothing was published, so the session re-reads the
    // previous epoch's page.
    browser_->refresh();
    throw;
  }
  // After the publish: the session reads through server_, which serves
  // only published epochs. The arc table (and with it the Arc storage
  // the session's cached links() point into) may have been rebuilt.
  browser_->refresh();
  if (telemetry_ != nullptr) {
    telemetry_->counter("build.runs").add(1);
    telemetry_->counter("build.nodes_rebuilt").add(report.nodes_rebuilt);
    telemetry_->counter("build.pages_rewoven").add(report.pages_rewoven);
    telemetry_->counter("build.linkbases_reauthored")
        .add(report.linkbases_reauthored);
  }
  return report;
}

void Engine::begin_batch() {
  if (batch_open_) {
    throw SemanticError(
        "Engine::begin_batch: a batch is already open (commit_batch it "
        "first — batches do not nest)");
  }
  batch_open_ = true;
  batch_edits_ = 0;
}

RebuildReport Engine::commit_batch() {
  if (!batch_open_) {
    throw SemanticError(
        "Engine::commit_batch: no batch is open (begin_batch first)");
  }
  batch_open_ = false;
  const std::size_t edits = std::exchange(batch_edits_, 0);
  if (edits == 0) return RebuildReport{};  // an empty batch publishes nothing
  // One run, one publish for the whole burst. A burst of profile
  // registrations alone dirtied nothing: the run finds no work and the
  // publish ships the new profile table.
  RebuildReport report = run_graph_now();
  report.edits_coalesced = edits;
  report.epochs_published = 1;
  return report;
}

void Engine::attach_telemetry(std::shared_ptr<obs::Registry> registry) {
  telemetry_sampler_.reset();
  server_metrics_.reset();
  build_graph_.set_telemetry(registry.get());
  telemetry_ = std::move(registry);
  if (telemetry_ == nullptr) return;
  server_metrics_ = server_->register_metrics(telemetry_, "engine.server");
  // Raw pointer capture on purpose: the registry holding a closure that
  // shares ownership of itself would never be destroyed. The handle
  // (reset above / on destruction / on re-attach) bounds its use.
  obs::Registry* reg = telemetry_.get();
  telemetry_sampler_ = reg->add_sampler([this, reg] {
    reg->gauge("store.epoch")
        .set(static_cast<std::int64_t>(snapshots_.epoch()));
    reg->gauge("store.publishes")
        .set(static_cast<std::int64_t>(snapshots_.publishes()));
  });
}

void Engine::publish_snapshot() {
  obs::ScopedSpan span(telemetry_ != nullptr ? &telemetry_->spans() : nullptr,
                       "build.publish", snapshots_.epoch() + 1);
  serve::SnapshotOverlayInputs overlays;
  overlays.arcs = arc_chunks_;
  overlays.structure_source = std::string(kStructureLinkbasePath);
  // Every non-structure record rides as an ordinary family (path-
  // addressable, slice-hashed): context families, AOT routes and
  // landmarks alike. Lazy routes own no record — they ride only in the
  // route table and expand inside the snapshot.
  overlays.families.reserve(linkbases_.size());
  for (const LinkbaseRecord& record : linkbases_) {
    if (record.kind == LinkbaseKind::Structure) continue;
    overlays.families.push_back(
        serve::SnapshotOverlayInputs::Family{record.name, record.path});
  }
  overlays.profiles = profiles_;
  refresh_route_table();
  overlays.routes = route_table_;
  snapshots_.publish(std::make_shared<serve::SiteSnapshot>(
      site_, graph_, site_base_, snapshots_.epoch() + 1,
      std::move(overlays)));
}

void Engine::register_profile(Profile profile) {
  if (profile.name.empty() ||
      profile.name.find('\n') != std::string::npos) {
    throw SemanticError(
        "Engine::register_profile: profile names must be non-empty and "
        "newline-free (they key the overlay cache)");
  }
  for (std::size_t i = 0; i < profile.families.size(); ++i) {
    const std::string& name = profile.families[i];
    const bool known =
        route_index(name) != kNoRoute ||
        find_linkbase(name, LinkbaseKind::Family) != nullptr ||
        find_linkbase(name, LinkbaseKind::Landmark) != nullptr;
    if (!known) {
      throw SemanticError("Engine::register_profile: unknown context family '" +
                          name +
                          "' (configure it via SitePipeline::contexts, "
                          "register_route or enable_landmarks)");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (profile.families[j] == name) {
        throw SemanticError(
            "Engine::register_profile: family '" + name +
            "' listed twice — a family weaves once per profile");
      }
    }
  }
  auto existing = std::find_if(
      profiles_.begin(), profiles_.end(),
      [&](const Profile& p) { return p.name == profile.name; });
  if (existing == profiles_.end()) {
    // With per-profile landmarks on, a new profile's name becomes part
    // of a family name: check the table this call would leave.
    std::vector<Profile> next = profiles_;
    next.push_back(profile);
    check_namespace("Engine::register_profile", route_programs_,
                    landmark_names(landmark_options_, next));
  }
  if (existing != profiles_.end()) {
    *existing = std::move(profile);
  } else {
    profiles_.push_back(std::move(profile));
  }
  // With landmark synthesis on, the new (or replaced) profile picks up
  // its landmark families: the base one always, its personal one when
  // per_profile is set. A brand-new personal family's sync defines its
  // nodes dirty and re-points (so dirties) the arc table. Otherwise
  // nothing is dirty, nothing re-weaves, and the next epoch differs only
  // in its profile table. In a batch the registration is visible to
  // later batched operations immediately; only the publish coalesces
  // into the batch's single epoch.
  if (landmark_options_.has_value()) {
    const std::vector<std::string> previous = landmark_families();
    (void)sync_linkbases();
    attach_landmark_families(previous);
  }
  (void)run_or_defer();
}

RebuildReport Engine::edit_context_family(
    std::string_view family_name,
    const std::function<void(hypermedia::ContextFamily&)>& edit) {
  auto family = std::find_if(
      families_.begin(), families_.end(),
      [&](const hypermedia::ContextFamily& f) {
        return f.name() == family_name;
      });
  if (family == families_.end()) {
    throw ResolutionError("Engine::edit_context_family: unknown family '" +
                          std::string(family_name) + "'");
  }
  // Dirty exactly that family's linkbase node: the graph re-authors it,
  // the arc table re-merges, and — because context-tagged tour arcs are
  // in no stored page's slice — zero pages re-weave. The propagation
  // runs even when the edit callback throws: it may already have
  // mutated the family, and an un-propagated mutation would leave the
  // authored linkbase (and every later snapshot) silently inconsistent
  // with the in-memory model.
  auto propagate = [&] {
    build_graph_.mark_dirty(
        linkbase_node(site::context_linkbase_path(family_name)));
    return run_or_defer();
  };
  try {
    edit(*family);
  } catch (...) {
    try {
      (void)propagate();
    } catch (...) {
      // Best-effort only: a half-mutated family may not even re-author.
      // The caller's own exception is the one worth reporting.
    }
    throw;
  }
  return propagate();
}

// --- Engine: linkbase records -------------------------------------------------

const Engine::LinkbaseRecord* Engine::find_linkbase(std::string_view name,
                                                    LinkbaseKind kind) const {
  for (const LinkbaseRecord& record : linkbases_) {
    if (record.kind == kind && record.name == name) return &record;
  }
  return nullptr;
}

void Engine::check_namespace(std::string_view caller,
                             const std::vector<RouteProgram>& routes,
                             const std::vector<std::string>& landmarks) const {
  // Every name claims its linkbase path; equal names map to equal paths,
  // so one path comparison polices both namespaces. The context families
  // are fixed at serve() — only the generated claims need checking.
  struct Claim {
    std::string_view owner;
    std::string_view name;
    std::string path;
  };
  std::vector<Claim> claims;
  claims.reserve(families_.size() + routes.size() + landmarks.size());
  auto add = [&](std::string_view owner, std::string_view name) {
    claims.push_back({owner, name, site::context_linkbase_path(name)});
  };
  for (const hypermedia::ContextFamily& family : families_) {
    add("context family", family.name());
  }
  const std::size_t generated = claims.size();
  for (const RouteProgram& program : routes) add("route", program.name);
  for (const std::string& name : landmarks) add("landmark family", name);
  for (std::size_t i = generated; i < claims.size(); ++i) {
    const Claim& claim = claims[i];
    if (claim.name.empty() ||
        claim.name.find_first_of(":\n") != std::string_view::npos) {
      throw SemanticError(
          std::string(caller) + ": " + std::string(claim.owner) + " name '" +
          std::string(claim.name) +
          "' must be non-empty and free of ':' and newlines — it names a "
          "context family whose arcs are tagged '<name>:<kind>'");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (claims[j].path != claim.path) continue;
      throw SemanticError(
          std::string(caller) + ": " + std::string(claims[j].owner) + " '" +
          std::string(claims[j].name) + "' and " + std::string(claim.owner) +
          " '" + std::string(claim.name) + "' would both author '" +
          claim.path +
          "' — families, routes and landmarks share one namespace (names "
          "map to paths case-insensitively)");
    }
  }
}

bool Engine::sync_linkbases() {
  // Records. The structure and family records lead the vector and never
  // change after serve(); the generated tail is rebuilt in merge order,
  // keeping the documents of records that survive.
  const auto tail = std::find_if(
      linkbases_.begin(), linkbases_.end(), [](const LinkbaseRecord& r) {
        return r.kind == LinkbaseKind::Route ||
               r.kind == LinkbaseKind::Landmark;
      });
  std::vector<LinkbaseRecord> previous(std::make_move_iterator(tail),
                                       std::make_move_iterator(linkbases_.end()));
  linkbases_.erase(tail, linkbases_.end());
  std::vector<bool> kept(previous.size(), false);
  auto want = [&](const std::string& name, LinkbaseKind kind) {
    for (std::size_t i = 0; i < previous.size(); ++i) {
      if (!kept[i] && previous[i].kind == kind && previous[i].name == name) {
        kept[i] = true;
        linkbases_.push_back(std::move(previous[i]));
        return;
      }
    }
    linkbases_.push_back(LinkbaseRecord{
        name, site::context_linkbase_path(name), kind, {}, nullptr});
  };
  for (const RouteProgram& program : route_programs_) {
    if (program.compile == RouteCompile::Aot) {
      want(program.name, LinkbaseKind::Route);
    }
  }
  for (const std::string& name : landmark_names(landmark_options_, profiles_)) {
    want(name, LinkbaseKind::Landmark);
  }
  for (std::size_t i = 0; i < previous.size(); ++i) {
    if (!kept[i]) site_.remove(previous[i].path);
  }

  // Graph nodes: a program node per route (Lazy ones too: their token
  // dirties the published route table) and per landmark record, and a
  // Linkbase node per record.
  std::vector<std::string> desired;
  std::vector<std::string> authored;  // structure + family linkbase nodes
  std::vector<std::string> arc_deps;  // every linkbase node, merge order
  for (const RouteProgram& program : route_programs_) {
    desired.push_back(route_node(program.name));
  }
  for (const LinkbaseRecord& record : linkbases_) {
    arc_deps.push_back(linkbase_node(record.path));
    if (record.kind == LinkbaseKind::Landmark) {
      desired.push_back(landmark_node(record.name));
    } else if (record.kind != LinkbaseKind::Route) {
      authored.push_back(arc_deps.back());
    }
  }
  desired.insert(desired.end(), arc_deps.begin(), arc_deps.end());
  std::vector<std::string> existing;
  for (ProductKind kind :
       {ProductKind::Route, ProductKind::Landmark, ProductKind::Linkbase}) {
    for (std::string& id : build_graph_.ids(kind)) {
      existing.push_back(std::move(id));
    }
  }
  std::sort(desired.begin(), desired.end());
  std::sort(existing.begin(), existing.end());
  if (existing == desired) return false;  // topology already right

  // Planning skips dep ids that no longer resolve, so removal order
  // relative to the arc-table redefinition below does not matter.
  for (const std::string& id : existing) {
    if (!std::binary_search(desired.begin(), desired.end(), id)) {
      build_graph_.remove(id);
    }
  }
  // Closures resolve by name or path at run time: records move on every
  // sync. A program node's product is its token, so a no-op
  // re-registration or identical traffic cuts off right there.
  for (const RouteProgram& program : route_programs_) {
    const std::string id = route_node(program.name);
    if (build_graph_.contains(id)) continue;
    build_graph_.define(id, ProductKind::Route, {}, [this, name = program.name] {
      const std::size_t at = route_index(name);
      return at == kNoRoute ? std::uint64_t{0}
                            : route_token(route_programs_[at]);
    });
  }
  for (const LinkbaseRecord& record : linkbases_) {
    const std::string id = linkbase_node(record.path);
    if (build_graph_.contains(id)) continue;
    std::vector<std::string> deps;
    if (record.kind == LinkbaseKind::Structure) {
      deps.push_back(std::string(kSpecNode));
    } else if (record.kind != LinkbaseKind::Family) {
      // A route expansion or landmark ranking is a function of its
      // program and the authored navigation: the structure and every
      // family.
      deps.push_back(record.kind == LinkbaseKind::Route
                         ? route_node(record.name)
                         : landmark_node(record.name));
      deps.insert(deps.end(), authored.begin(), authored.end());
    }
    if (record.kind == LinkbaseKind::Landmark &&
        !build_graph_.contains(deps.front())) {
      build_graph_.define(
          deps.front(), ProductKind::Landmark, {}, [this, name = record.name] {
            return landmark_options_.has_value()
                       ? landmark_token(name, *landmark_options_,
                                        landmark_traffic_,
                                        landmark_profile(name))
                       : std::uint64_t{0};
          });
    }
    build_graph_.define(id, ProductKind::Linkbase, std::move(deps),
                        [this, path = record.path] {
                          return install_linkbase(path);
                        });
  }

  // Re-point the arc table at every record's linkbase. Redefining a node
  // marks it dirty but keeps its hash, so the re-merge runs once and an
  // unchanged table still cuts off there.
  build_graph_.define(std::string(kArcTableNode), ProductKind::ArcTable,
                      std::move(arc_deps),
                      [this] { return rebuild_arc_table(); });
  return true;
}

std::uint64_t Engine::install_linkbase(const std::string& path) {
  auto record = std::find_if(
      linkbases_.begin(), linkbases_.end(),
      [&](const LinkbaseRecord& r) { return r.path == path; });
  if (record == linkbases_.end()) return 0;
  const core::LinkbaseOptions lb =
      site::separated_linkbase_options(site_base_, path);
  // The only per-kind step: which producer drafts the linkbase.
  const core::LinkbaseDraft draft = [&] {
    switch (record->kind) {
      case LinkbaseKind::Family:
        // Family records follow the structure record in families_ order.
        return core::draft_context_linkbase(
            families_[static_cast<std::size_t>(record - linkbases_.begin()) -
                      1],
            *nav_, lb);
      case LinkbaseKind::Route:
        return core::draft_context_linkbase(route_family(record->name), *nav_,
                                            lb);
      case LinkbaseKind::Landmark:
        return core::draft_context_linkbase(landmark_family(record->name),
                                            *nav_, lb);
      case LinkbaseKind::Structure:
        break;
    }
    return core::draft_linkbase(*structure_, structure_->stored_arcs(), lb);
  }();
  std::string text = core::write_linkbase(draft);
  const std::uint64_t hash = hash_bytes(text);
  if (const std::string* current = site_.get(path);
      current != nullptr && *current == text) {
    return hash;
  }
  // Derive what the arc table reads from this record into locals, then
  // commit with no-throw moves: a throw before the commit leaves the
  // record and the site text as they were (and this node dirty).
  core::LinkbaseArcs arcs = core::expand_linkbase(draft, path);
  site_.put(path, std::move(text));
  record->graph = std::move(arcs.graph);
  record->chunk = std::move(arcs.chunk);
  return hash;
}

// --- Engine: route programs ---------------------------------------------------

RebuildReport Engine::register_route(RouteProgram program) {
  // Check the program list this call would leave; re-registering a name
  // replaces that program in place (registration order is merge order).
  const std::size_t index = route_index(program.name);
  std::vector<RouteProgram> next = route_programs_;
  (index != kNoRoute ? next[index] : next.emplace_back()) = program;
  check_namespace("Engine::register_route", next, landmark_families());
  // Parse eagerly (errors name the offending token) and store the
  // canonical spelling: route tokens — and with them the lazy overlay
  // cache keys — are hashes of the printed form, so `a/b` and `a / b`
  // must be one program, not two.
  program.expression = print_route(parse_route(program.expression));

  const std::string name = program.name;
  if (index != kNoRoute) {
    route_programs_[index] = std::move(program);
  } else {
    route_programs_.push_back(std::move(program));
  }
  // An Aot -> Lazy flip retires the authored artifact here; the lazy
  // path serves the expansion from inside the snapshot instead.
  (void)sync_linkbases();
  build_graph_.mark_dirty(route_node(name));
  // A Lazy program reaches readers purely through the published route
  // table, but run_or_defer()'s graph run always publishes, so no extra
  // plumbing: the dirty Route node re-hashes and the new table ships.
  return run_or_defer();
}

RebuildReport Engine::edit_route(std::string_view name,
                                 std::string_view expression) {
  const std::size_t index = route_index(name);
  if (index == kNoRoute) {
    throw ResolutionError("Engine::edit_route: unknown route '" +
                          std::string(name) + "'");
  }
  route_programs_[index].expression =
      print_route(parse_route(expression));
  build_graph_.mark_dirty(route_node(name));
  return run_or_defer();
}

RebuildReport Engine::remove_route(std::string_view name) {
  const std::size_t index = route_index(name);
  if (index == kNoRoute) {
    throw ResolutionError("Engine::remove_route: unknown route '" +
                          std::string(name) + "'");
  }
  // Detach the name from every profile, as disable_landmarks does for
  // its families; the shrunk profile table ships in this call's epoch,
  // batched or not. Copied first: `name` may view the program's own name
  // or a profile's entry, both of which the erasures destroy.
  const std::string removed(name);
  for (Profile& profile : profiles_) std::erase(profile.families, removed);
  route_programs_.erase(route_programs_.begin() +
                        static_cast<std::ptrdiff_t>(index));
  // The sync drops the route's nodes and re-points (so dirties) the arc
  // table, which re-merges without this route's arcs; an Aot route's
  // artifact retires now. Lazy removal publishes the shrunk route table
  // through run_or_defer's unconditional publish.
  (void)sync_linkbases();
  return run_or_defer();
}

std::size_t Engine::route_index(std::string_view name) const {
  for (std::size_t i = 0; i < route_programs_.size(); ++i) {
    if (route_programs_[i].name == name) return i;
  }
  return kNoRoute;
}

core::ArcChunks Engine::authored_chunks() const {
  // Route expressions range over the *authored* navigation — structure
  // plus context families — never over other routes: expansion is a
  // function of the authored site, not a fixpoint. The lazy path
  // mirrors this by passing its structure and context-family chunks
  // only. The structure and family records lead linkbases_.
  core::ArcChunks chunks;
  for (const LinkbaseRecord& record : linkbases_) {
    if (record.kind != LinkbaseKind::Structure &&
        record.kind != LinkbaseKind::Family) {
      break;
    }
    if (record.chunk != nullptr) chunks.push_back(record.chunk);
  }
  return chunks;
}

hypermedia::ContextFamily Engine::route_family(std::string_view name) const {
  const std::size_t index = route_index(name);
  if (index == kNoRoute) {
    throw ResolutionError("Engine::route_family: unknown route '" +
                          std::string(name) + "'");
  }
  return route_context_family(route_programs_[index].name,
                              parse_route(route_programs_[index].expression),
                              authored_chunks());
}

void Engine::refresh_route_table() {
  if (route_programs_.empty()) {
    route_table_ = nullptr;
    return;
  }
  auto table = std::make_shared<serve::RouteTable>();
  table->entries.reserve(route_programs_.size());
  for (const RouteProgram& program : route_programs_) {
    table->entries.push_back(serve::RouteTable::Entry{
        program, site::context_linkbase_path(program.name)});
  }
  // Title export: the snapshot's lazy expansion authors locator titles
  // from this table, pinning its bytes to what the model-backed AOT
  // authoring produces (ids missing here fall back to the id on both
  // sides).
  for (const hypermedia::NavNode& node : nav_->nodes()) {
    table->titles.emplace(node.id(), node.title());
  }
  // Content-equal tables keep pointer identity across epochs — the
  // replication wire's carry-forward probe relies on it.
  if (route_table_ == nullptr || !(*table == *route_table_)) {
    route_table_ = std::move(table);
  }
}

// --- Engine: landmark synthesis -----------------------------------------------

RebuildReport Engine::enable_landmarks(const obs::TraceAggregate& traffic,
                                       LandmarkOptions options) {
  check_namespace("Engine::enable_landmarks", route_programs_,
                  landmark_names(options, profiles_));
  // Copy the tables: re-ranking, diagnostics and the landmark tokens all
  // read from engine-owned state, not from whatever the caller mutates
  // next.
  const std::vector<std::string> previous = landmark_families();
  landmark_traffic_ = traffic;
  landmark_options_ = options;
  (void)sync_linkbases();
  attach_landmark_families(previous);
  // Fresh traffic re-ranks every family: dirty each program node; the
  // token cuts off when the tables (and options) are unchanged.
  for (const std::string& name : landmark_families()) {
    build_graph_.mark_dirty(landmark_node(name));
  }
  build_graph_.mark_dirty(std::string(kArcTableNode));
  return run_or_defer();
}

RebuildReport Engine::disable_landmarks() {
  if (!landmark_options_.has_value()) return RebuildReport{};  // idempotent
  const std::vector<std::string> previous = landmark_families();
  landmark_options_.reset();
  landmark_traffic_ = obs::TraceAggregate{};
  (void)sync_linkbases();  // no landmark is wanted now: retire them all
  attach_landmark_families(previous);
  // The arc table re-merges without the landmark arcs (the retired
  // linkbase nodes can no longer propagate into it).
  build_graph_.mark_dirty(std::string(kArcTableNode));
  return run_or_defer();
}

std::vector<std::string> Engine::landmark_families() const {
  std::vector<std::string> names;
  for (const LinkbaseRecord& record : linkbases_) {
    if (record.kind == LinkbaseKind::Landmark) names.push_back(record.name);
  }
  return names;
}

hypermedia::ContextFamily Engine::landmark_family(
    std::string_view name) const {
  if (find_linkbase(name, LinkbaseKind::Landmark) == nullptr) {
    throw ResolutionError("Engine::landmark_family: unknown landmark '" +
                          std::string(name) + "'");
  }
  return landmark_context_family(
      name, score_landmarks(landmark_traffic_, authored_chunks(),
                            *landmark_options_, landmark_profile(name)));
}

std::vector<LandmarkScore> Engine::landmark_picks(
    std::string_view name) const {
  if (find_linkbase(name, LinkbaseKind::Landmark) == nullptr) {
    throw ResolutionError("Engine::landmark_picks: unknown landmark '" +
                          std::string(name) + "'");
  }
  return score_landmarks(landmark_traffic_, authored_chunks(),
                         *landmark_options_, landmark_profile(name));
}

void Engine::attach_landmark_families(
    const std::vector<std::string>& previous) {
  const std::vector<std::string> current = landmark_families();
  auto contains = [](const std::vector<std::string>& names,
                     const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (Profile& profile : profiles_) {
    std::erase_if(profile.families, [&](const std::string& name) {
      return contains(previous, name) && !contains(current, name);
    });
    for (const std::string& name :
         {std::string(kLandmarkFamily),
          std::string(kLandmarkFamily) + "-" + profile.name}) {
      if (contains(current, name) && !contains(profile.families, name)) {
        profile.families.push_back(name);
      }
    }
  }
}

RebuildReport Engine::set_access_structure(
    std::unique_ptr<hypermedia::AccessStructure> structure) {
  if (structure == nullptr) {
    throw SemanticError("Engine::set_access_structure: null structure");
  }
  // Materialize first (a structure holding an arc with an empty endpoint
  // is refused before any state moves), then capture the Menu
  // sub-structure shape from the unflattened original — this is where a
  // constructed Menu becomes mutable.
  auto snapshot = hypermedia::MaterializedStructure::snapshot(*structure);
  adopt_structure_shape(*structure);
  structure_ = std::move(snapshot);
  return run_graph_after_mutation();
}

RebuildReport Engine::set_access_structure(
    hypermedia::AccessStructureKind kind) {
  return regenerate_structure(kind, structure_->members());
}

RebuildReport Engine::add_node(std::string_view node_id) {
  const hypermedia::NavNode* node = nav_->node(node_id);
  if (node == nullptr) {
    throw ResolutionError("Engine::add_node: unknown node id '" +
                          std::string(node_id) + "'");
  }
  if (structure_->kind() == hypermedia::AccessStructureKind::Menu &&
      !menu_subs_.empty()) {
    // Sub-aware path: the member joins the LAST sub (a Menu's own member
    // list is derived — the sub entries — so that is where leaf members
    // actually live).
    for (const MenuSubSpec& sub : menu_subs_) {
      for (const auto& m : sub.members) {
        if (m.node_id == node_id) {
          throw SemanticError("Engine::add_node: '" + std::string(node_id) +
                              "' is already a member of sub-structure '" +
                              sub.name + "'");
        }
      }
    }
    menu_subs_.back().members.push_back(
        hypermedia::Member{std::string(node_id), node->title()});
    return regenerate_structure(hypermedia::AccessStructureKind::Menu, {});
  }
  std::vector<hypermedia::Member> members = structure_->members();
  for (const auto& m : members) {
    if (m.node_id == node_id) {
      throw SemanticError("Engine::add_node: '" + std::string(node_id) +
                          "' is already a member");
    }
  }
  members.push_back(hypermedia::Member{std::string(node_id), node->title()});
  return regenerate_structure(structure_->kind(), std::move(members));
}

RebuildReport Engine::retitle_node(std::string_view node_id,
                                   std::string_view title) {
  if (structure_->kind() == hypermedia::AccessStructureKind::Menu &&
      !menu_subs_.empty()) {
    // Sub-aware path: retitle the member inside whichever sub holds it.
    for (std::size_t i = 0; i < menu_subs_.size(); ++i) {
      auto member = std::find_if(
          menu_subs_[i].members.begin(), menu_subs_[i].members.end(),
          [&](const auto& m) { return m.node_id == node_id; });
      if (member != menu_subs_[i].members.end()) {
        member->title = std::string(title);
        return regenerate_structure(hypermedia::AccessStructureKind::Menu, {});
      }
    }
    throw ResolutionError("Engine::retitle_node: '" + std::string(node_id) +
                          "' is not a member of any Menu sub-structure");
  }
  std::vector<hypermedia::Member> members = structure_->members();
  auto it = std::find_if(members.begin(), members.end(), [&](const auto& m) {
    return m.node_id == node_id;
  });
  if (it == members.end()) {
    throw ResolutionError("Engine::retitle_node: '" + std::string(node_id) +
                          "' is not a member of the access structure");
  }
  it->title = std::string(title);
  return regenerate_structure(structure_->kind(), std::move(members));
}

RebuildReport Engine::replace_arc(std::size_t index,
                                  hypermedia::AccessArc arc) {
  structure_->replace_arc(index, std::move(arc));
  return run_graph_after_mutation();
}

RebuildReport Engine::regenerate_structure(
    hypermedia::AccessStructureKind kind,
    std::vector<hypermedia::Member> members) {
  if (kind == hypermedia::AccessStructureKind::Menu) {
    if (menu_subs_.empty()) {
      // A Menu the engine cannot see into (nested Menus, a
      // pre-materialized snapshot, or a current structure that never was
      // a Menu) has no sub specs to regenerate from — refuse without
      // moving any state, exactly like the pre-sub-capture guard.
      throw SemanticError(
          "Engine: Menu-kind regeneration needs captured sub-structures; "
          "this structure is opaque (nested Menu, materialized snapshot, "
          "or not a Menu at all) — pass a constructed Menu to "
          "set_access_structure(structure), or edit arcs individually "
          "with replace_arc");
    }
    // Refresh the Menu's derived arcs from the captured subs (the Menu
    // analogue of kind-regeneration: discards replace_arc overlays).
    structure_ = hypermedia::MaterializedStructure::snapshot(*regenerate_menu());
    return run_graph_after_mutation();
  }
  auto regenerated = hypermedia::MaterializedStructure::snapshot(
      *hypermedia::make_access_structure(kind, structure_->name(),
                                         std::move(members)));
  menu_subs_.clear();  // the structure is no longer a Menu
  structure_ = std::move(regenerated);
  return run_graph_after_mutation();
}

std::unique_ptr<hypermedia::AccessStructure> Engine::regenerate_menu() const {
  std::vector<std::unique_ptr<hypermedia::AccessStructure>> subs;
  subs.reserve(menu_subs_.size());
  for (const MenuSubSpec& spec : menu_subs_) {
    if (spec.kind == hypermedia::AccessStructureKind::GuidedTour) {
      // The factory cannot express circularity; build tours directly.
      subs.push_back(std::make_unique<hypermedia::GuidedTour>(
          spec.name, spec.members, spec.circular));
    } else {
      subs.push_back(hypermedia::make_access_structure(spec.kind, spec.name,
                                                       spec.members));
    }
  }
  return std::make_unique<hypermedia::Menu>(structure_->name(),
                                            std::move(subs));
}

void Engine::adopt_structure_shape(
    const hypermedia::AccessStructure& structure) {
  menu_subs_.clear();
  if (structure.kind() != hypermedia::AccessStructureKind::Menu) return;
  const auto* menu = dynamic_cast<const hypermedia::Menu*>(&structure);
  if (menu == nullptr) return;  // a materialized Menu snapshot: opaque
  std::vector<MenuSubSpec> subs;
  subs.reserve(menu->sub_structures().size());
  for (const auto& sub : menu->sub_structures()) {
    if (sub->kind() == hypermedia::AccessStructureKind::Menu) {
      return;  // nested Menus stay opaque (menu_subs_ left empty)
    }
    MenuSubSpec spec{sub->kind(), sub->name(), sub->members(), false};
    if (const auto* tour =
            dynamic_cast<const hypermedia::GuidedTour*>(sub.get())) {
      spec.circular = tour->circular();
    }
    subs.push_back(std::move(spec));
  }
  menu_subs_ = std::move(subs);
}

// --- Engine: build-graph wiring -----------------------------------------------

const std::vector<core::AnchorProvenance>* Engine::provenance_for(
    std::string_view page_id) const {
  auto it = provenance_.find(page_id);
  return it == provenance_.end() ? nullptr : &it->second;
}

std::vector<std::string> Engine::desired_page_ids() const {
  std::vector<std::string> out;
  out.reserve(structure_->members().size() + 1);
  for (const auto& member : structure_->members()) {
    if (nav_->node(member.node_id) != nullptr) out.push_back(member.node_id);
  }
  out.push_back(structure_->page_id());
  return out;
}

std::uint64_t Engine::rebuild_spec() {
  // The page set is a function of the name (the structure page) and the
  // member ids, keyed on the same walk (see page_set_).
  const std::uint64_t name = hash_bytes(structure_->name());
  std::uint64_t h = hash_combine(name, static_cast<std::uint64_t>(structure_->kind()));
  std::uint64_t pages = name;
  for (const auto& member : structure_->members()) {
    const std::uint64_t id = hash_bytes(member.node_id);
    h = hash_str(hash_combine(h, id), member.title);
    pages = hash_combine(pages, id);
  }
  page_set_ = pages;
  for (const auto& arc : structure_->stored_arcs()) {
    h = hash_str(h, arc.from);
    h = hash_str(h, arc.to);
    h = hash_str(h, arc.role);
    h = hash_str(h, arc.title);
  }
  return h;
}

std::uint64_t Engine::rebuild_arc_table() {
  // Merge the browser-facing traversal graph from the records' cached
  // graphs, in merge order: the structure's copied whole, the rest
  // appended (merge() appends each record's already normalized index).
  xlink::TraversalGraph merged = linkbases_.front().graph;
  for (std::size_t i = 1; i < linkbases_.size(); ++i) {
    merged.merge(linkbases_[i].graph);
  }
  graph_ = std::move(merged);

  // The arc set is the records' chunks in merge order, shared, never
  // copied. Route and landmark chunks join after the families; their
  // arcs are context-tagged ('<name>:route', '<name>:landmark'), so like
  // tour arcs they land in overlay slices, never in stored pages. The
  // table is a function of the records' texts, so their hashes make its
  // hash.
  core::ArcChunks chunks;
  chunks.reserve(linkbases_.size());
  std::uint64_t table_hash = 0xa5a5a5a5a5a5a5a5ull;
  for (const LinkbaseRecord& record : linkbases_) {
    table_hash = hash_combine(
        table_hash, build_graph_.hash_of(linkbase_node(record.path)));
    if (record.chunk != nullptr) chunks.push_back(record.chunk);
  }
  arc_chunks_ = std::move(chunks);

  // Hand the chunks to the weaver as the (sole) navigation aspect.
  core::NavigationAspectOptions aspect_options;
  aspect_options.provenance_log = &weave_provenance_;
  weaver_.replace_aspect(core::NavigationAspect::from_contextual_arcs(
      arc_chunks_, aspect_options));

  // Re-weave, in page-id order, exactly the pages whose slice moved since
  // their stored bytes were woven. A stored page weaves the context-free
  // arcs leaving it (contextual tour arcs are only woven into on-demand
  // compositions carrying their context tag), so its slice is each
  // chunk's woven hash for it, combined in merge order. A weave that
  // throws leaves its page and the ones after it unwoven and this node
  // dirty, so the next run weaves exactly those. Pages join or retire
  // only when the structure's name or member ids moved.
  if (synced_page_set_ != page_set_) {
    sync_pages();
    synced_page_set_ = page_set_;
  }
  for (auto& [page_id, woven] : woven_at_) {
    std::uint64_t current = core::kEmptySliceHash;
    for (const std::shared_ptr<const core::ArcChunk>& chunk : arc_chunks_) {
      const auto slice = chunk->woven_hashes.find(page_id);
      if (slice != chunk->woven_hashes.end()) {
        current = hash_combine(current, slice->second);
      }
    }
    if (woven == current) continue;
    weave_page(page_id);
    woven = current;
    ++pages_rewoven_;
  }
  return table_hash;
}

void Engine::sync_pages() {
  std::vector<std::string> desired = desired_page_ids();
  std::sort(desired.begin(), desired.end());
  // Retire pages whose member vanished: site artifact, provenance.
  for (auto it = woven_at_.begin(); it != woven_at_.end();) {
    if (std::binary_search(desired.begin(), desired.end(), it->first)) {
      ++it;
      continue;
    }
    site_.remove(core::default_href_for(it->first));
    provenance_.erase(it->first);
    it = woven_at_.erase(it);
  }
  for (std::string& id : desired) woven_at_.try_emplace(std::move(id));
}

void Engine::weave_page(const std::string& page_id) {
  weave_provenance_.clear();
  core::SeparatedComposer composer(weaver_);
  std::string text =
      page_id == structure_->page_id()
          ? composer.compose_structure_page(page_id, structure_->name())
          : composer.compose_node_page(*nav_->node(page_id));
  provenance_[page_id] = std::exchange(weave_provenance_, {});
  const std::string path = core::default_href_for(page_id);
  if (const std::string* current = site_.get(path);
      current == nullptr || *current != text) {
    site_.put(path, std::move(text));
  }
}

void Engine::wire_graph() {
  build_graph_.define(std::string(kSpecNode), ProductKind::Source, {},
                      [this] { return rebuild_spec(); });
  // The structure and family records get their Linkbase nodes and the
  // arc-table node they feed.
  (void)sync_linkbases();
}

// --- SitePipeline ------------------------------------------------------------

SitePipeline& SitePipeline::conceptual(
    std::unique_ptr<museum::MuseumWorld> world) {
  owned_world_ = std::move(world);
  world_ = owned_world_.get();
  nav_.reset();  // a model derived from a previous world is invalid now
  return *this;
}

SitePipeline& SitePipeline::conceptual(const museum::MuseumWorld& world) {
  owned_world_.reset();
  world_ = &world;
  nav_.reset();
  return *this;
}

SitePipeline& SitePipeline::conceptual(const museum::SyntheticSpec& spec) {
  return conceptual(museum::MuseumWorld::synthetic(spec));
}

SitePipeline& SitePipeline::paper_museum() {
  return conceptual(museum::MuseumWorld::paper_instance());
}

SitePipeline& SitePipeline::schema() {
  if (world_ == nullptr) {
    throw SemanticError("SitePipeline::schema(): no conceptual model yet — "
                        "call conceptual() first");
  }
  nav_ = world_->derive_navigation();
  return *this;
}

SitePipeline& SitePipeline::schema(hypermedia::NavigationalModel model) {
  nav_ = std::move(model);
  return *this;
}

SitePipeline& SitePipeline::access(hypermedia::AccessStructureKind kind) {
  kind_ = kind;
  scope_painter_.reset();
  structure_.reset();
  return *this;
}

SitePipeline& SitePipeline::access(hypermedia::AccessStructureKind kind,
                                   std::string_view painter_id) {
  kind_ = kind;
  scope_painter_ = std::string(painter_id);
  structure_.reset();
  return *this;
}

SitePipeline& SitePipeline::structure(
    std::unique_ptr<hypermedia::AccessStructure> structure) {
  structure_ = std::move(structure);
  kind_.reset();
  scope_painter_.reset();
  return *this;
}

SitePipeline& SitePipeline::contexts(std::vector<std::string> family_names) {
  family_names_ = std::move(family_names);
  return *this;
}

SitePipeline& SitePipeline::weave() { return *this; }

SitePipeline::Materialized SitePipeline::materialize() {
  if (world_ == nullptr) {
    throw SemanticError(
        "SitePipeline: no conceptual model — call conceptual(), "
        "paper_museum() or conceptual(SyntheticSpec) first");
  }
  Materialized m;
  m.owned_world = std::move(owned_world_);
  m.world = world_;
  m.nav = nav_ ? std::move(nav_) : std::optional<hypermedia::NavigationalModel>(
                                       world_->derive_navigation());
  // The pipeline is consumed: clear the moved-from state so a second
  // terminal call throws the no-conceptual-model error above instead of
  // dereferencing a dead world.
  world_ = nullptr;
  nav_.reset();

  if (structure_ != nullptr) {
    m.structure = std::move(structure_);
  } else if (kind_) {
    m.structure = scope_painter_
                      ? m.world->paintings_structure(*kind_, *m.nav,
                                                     *scope_painter_)
                      : m.world->all_paintings_structure(*kind_, *m.nav);
  } else {
    throw SemanticError(
        "SitePipeline: no access structure — call access(kind[, painter]) "
        "or structure(...)");
  }

  for (const std::string& name : family_names_) {
    if (name == "ByAuthor") {
      m.families.push_back(m.world->by_author(*m.nav));
    } else if (name == "ByMovement") {
      m.families.push_back(m.world->by_movement(*m.nav));
    } else {
      throw SemanticError("SitePipeline: unknown context family '" + name +
                          "' (known: ByAuthor, ByMovement)");
    }
  }
  return m;
}

namespace {

/// The server slash-terminates its base; the site builders concatenate
/// theirs — normalize up front so linkbase URIs and served URIs agree.
std::string with_trailing_slash(std::string_view base) {
  std::string out(base);
  if (!out.empty() && out.back() != '/') out += '/';
  return out;
}

}  // namespace

std::unique_ptr<Engine> SitePipeline::serve(std::string_view base) {
  Materialized m = materialize();

  // The constructor is private; no make_unique.
  std::unique_ptr<Engine> engine(new Engine());
  engine->owned_world_ = std::move(m.owned_world);
  engine->world_ = m.world;
  engine->nav_ = std::move(m.nav);
  // Capture Menu sub specs so sub-level mutations can regenerate the
  // Menu, then hold the structure materialized: arc edits replace its
  // stored arcs, and the linkbase producer reads them in place.
  engine->adopt_structure_shape(*m.structure);
  engine->structure_ = hypermedia::MaterializedStructure::snapshot(*m.structure);
  engine->families_ = std::move(m.families);
  engine->site_base_ = with_trailing_slash(base);

  // Seed the site with the structure-independent authored artifacts; the
  // build graph owns everything derived (linkbases, arc table, pages) and
  // the initial run below materializes them all.
  site::author_fixed_artifacts(engine->site_, *engine->world_);
  engine->linkbases_.push_back(Engine::LinkbaseRecord{
      "", std::string(kStructureLinkbasePath), Engine::LinkbaseKind::Structure,
      {}, nullptr});
  for (const auto& family : engine->families_) {
    engine->linkbases_.push_back(Engine::LinkbaseRecord{
        family.name(), site::context_linkbase_path(family.name()),
        Engine::LinkbaseKind::Family, {}, nullptr});
  }
  engine->wire_graph();
  (void)engine->build_graph_.run();
  engine->publish_snapshot();  // epoch 1: the initially built site

  engine->server_ = engine->open_concurrent();
  engine->browser_ =
      std::make_unique<site::Browser>(*engine->server_, engine->graph_);
  engine->session_ = std::make_unique<BrowserSession>(*engine->browser_,
                                                      *engine->server_);
  return engine;
}

site::VirtualSite SitePipeline::build(std::string_view base) {
  Materialized m = materialize();
  site::SiteBuildOptions options;
  options.site_base = with_trailing_slash(base);
  for (const auto& family : m.families) {
    options.context_families.push_back(&family);
  }
  return site::build_separated_site(*m.world, *m.structure, options);
}

}  // namespace navsep::nav
