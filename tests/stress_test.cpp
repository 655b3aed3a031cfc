// The randomized differential stress harness: one engine, a mixed
// 100+ step mutation sequence (structure mutations, context-family
// edits, profile (re)registration, blanket rebuilds, route-program and
// landmark churn, cache-cap churn),
// and after EVERY step a differential check of every served body — base
// and per-profile, through ConcurrentServers with unbounded, tightly
// capped and zero-cap (pass-through) cache layers — against the full
// single-threaded build oracle (tests/oracle.{hpp,cpp}).
//
// This is the property the whole serving stack hangs off: no sequence
// of writer operations, and no cache-layer configuration, may ever make
// a served byte diverge from what a from-scratch build of the current
// authored state would produce.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/linkbase.hpp"
#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "serve/cache_warmer.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/snapshot.hpp"
#include "site/virtual_site.hpp"
#include "xlink/traversal.hpp"
#include "xml/parser.hpp"

namespace {

using navsep::Rng;
using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace serve = navsep::serve;
namespace site = navsep::site;
namespace xlink = navsep::xlink;
using navsep::testing::expect_sites_identical;
using navsep::testing::full_build_oracle;
using navsep::testing::profile_oracle;

/// The route-program churn pool: two route names cycling through
/// register / edit / compile-mode flip / removal, over a fixed set of
/// well-formed expressions (randomized program *generation* is
/// route_test's job; the stress harness churns lifecycle + serving).
const std::vector<std::string> kRouteNames{"routeA", "routeB"};
const std::vector<std::string> kRouteExprs{
    "index-entry / next*",
    "@ByAuthor",
    "@ByMovement / next",
    "(next | prev)*",
    "up / index-entry",
    "@ByAuthor | @ByMovement",
};

/// One randomized route-program mutation. Returns the number of engine
/// mutations performed (removal first re-registers any profile that
/// references the dying route, so batched bursts can count every edit).
std::size_t random_route_op(nav::Engine& in, Rng& rng,
                            std::vector<nav::Profile>& profiles) {
  const std::string& name = rng.pick(kRouteNames);
  const bool registered =
      std::any_of(in.routes().begin(), in.routes().end(),
                  [&](const nav::RouteProgram& p) { return p.name == name; });
  if (!registered) {
    (void)in.register_route({name, rng.pick(kRouteExprs),
                             rng.chance(0.5) ? nav::RouteCompile::Aot
                                             : nav::RouteCompile::Lazy});
    return 1;
  }
  const std::uint64_t roll = rng.below(4);
  if (roll == 0) {
    std::size_t edits = 0;
    for (nav::Profile& p : profiles) {
      auto it = std::find(p.families.begin(), p.families.end(), name);
      if (it != p.families.end()) {
        p.families.erase(it);
        in.register_profile(p);
        ++edits;
      }
    }
    (void)in.remove_route(name);
    return edits + 1;
  }
  if (roll == 1) {
    (void)in.edit_route(name, rng.pick(kRouteExprs));
    return 1;
  }
  // Re-register: new expression AND possibly a compile-mode flip — the
  // Aot artifact retires (or appears) while the served bytes must not
  // move for an unchanged expression.
  (void)in.register_route({name, rng.pick(kRouteExprs),
                           rng.chance(0.5) ? nav::RouteCompile::Aot
                                           : nav::RouteCompile::Lazy});
  return 1;
}

/// One randomized landmark-synthesis mutation: enable with fresh random
/// traffic over `pages` (per_profile coin-flipped, so successive enables
/// toggle it) or, when enabled, disable. Always exactly one engine
/// mutation. The engine attaches landmark families to its registered
/// profiles itself, so oracles must read engine->profiles().
void random_landmark_op(nav::Engine& in, Rng& rng,
                        const std::vector<std::string>& pages,
                        const std::vector<nav::Profile>& profiles) {
  if (!in.landmark_families().empty() && rng.chance(0.3)) {
    (void)in.disable_landmarks();
    return;
  }
  navsep::obs::TraceAggregate traffic;
  for (const std::string& page : pages) {
    if (!rng.chance(0.7)) continue;
    const std::uint64_t views = 1 + rng.below(20);
    traffic.page_views[page] += views;
    traffic.events += views;
    const nav::Profile& lens = rng.pick(profiles);
    traffic.profile_page_views[{lens.name, page}] += views;
  }
  (void)in.enable_landmarks(
      traffic, nav::LandmarkOptions{.top_k = 1 + rng.below(4),
                                    .per_profile = rng.chance(0.5)});
}

/// Extend a profile's family list with each currently registered route
/// name, coin-flip each — profiles reference routes exactly like
/// families, so the churn must mix them.
void maybe_reference_routes(const nav::Engine& in, Rng& rng,
                            nav::Profile& profile) {
  for (const nav::RouteProgram& program : in.routes()) {
    if (rng.chance(0.5)) profile.families.push_back(program.name);
  }
}

/// One server under test: a ConcurrentServer plus the limits it was
/// opened with (for the per-step cap assertions).
struct ServerUnderTest {
  std::string label;
  serve::CacheLimits limits;
  std::size_t shards = 4;
  std::unique_ptr<serve::ConcurrentServer> server;
};

/// Every served body of `server` must equal the oracle: base paths the
/// engine's (already oracle-checked) site bytes, profile paths the
/// per-profile build, excluded linkbases 404.
void expect_server_differential(
    const ServerUnderTest& sut,
    const std::map<std::string, std::string>& base_bytes,
    const std::vector<std::pair<nav::Profile, std::map<std::string, std::string>>>&
        profile_bytes,
    int step) {
  for (const auto& [path, bytes] : base_bytes) {
    site::Response r = sut.server->get(path);
    ASSERT_TRUE(r.ok()) << sut.label << " step " << step << " " << path;
    ASSERT_EQ(*r.body, bytes) << sut.label << " step " << step << " " << path;
  }
  for (const auto& [profile, oracle] : profile_bytes) {
    for (const auto& [path, bytes] : oracle) {
      site::Response r = sut.server->get(path, profile.name);
      ASSERT_TRUE(r.ok()) << sut.label << " step " << step << " "
                          << profile.name << " " << path;
      ASSERT_EQ(*r.body, bytes) << sut.label << " step " << step << " "
                                << profile.name << " " << path;
    }
    for (const auto& [path, bytes] : base_bytes) {
      if (oracle.find(path) != oracle.end()) continue;
      ASSERT_FALSE(sut.server->get(path, profile.name).ok())
          << sut.label << " step " << step << " " << profile.name
          << " must not see " << path;
    }
  }
  // The bounded layers must actually be bounded, and the residency
  // ledger must balance, at every step of the churn.
  serve::ConcurrentServer::UnifiedStats s = sut.server->unified_stats();
  if (sut.limits.base_entries_per_shard != serve::CacheLimits::kUnbounded) {
    ASSERT_LE(s.base.entries,
              sut.limits.base_entries_per_shard * sut.shards)
        << sut.label << " step " << step;
  }
  if (sut.limits.overlay_entries_per_shard != serve::CacheLimits::kUnbounded) {
    ASSERT_LE(s.overlay.entries,
              sut.limits.overlay_entries_per_shard * sut.shards)
        << sut.label << " step " << step;
  }
  ASSERT_EQ(s.base.inserted, s.base.entries + s.base.evicted)
      << sut.label << " step " << step;
  ASSERT_EQ(s.overlay.inserted, s.overlay.entries + s.overlay.evicted)
      << sut.label << " step " << step;
}

TEST(DifferentialStress, MixedMutationSequenceServesOnlyOracleBytes) {
  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 3,
                        .paintings_per_painter = 3,
                        .movements = 2,
                        .seed = 17})
                    .access(AccessStructureKind::Index, "painter-0")
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();

  // The profile table under churn: three fixed names whose family lists
  // get re-registered mid-sequence (order matters — it is weave order).
  const std::vector<std::vector<std::string>> family_subsets{
      {}, {"ByAuthor"}, {"ByMovement"}, {"ByAuthor", "ByMovement"},
      {"ByMovement", "ByAuthor"}};
  std::vector<nav::Profile> profiles{
      {"kiosk", {}},
      {"tour", {"ByAuthor"}},
      {"everything", {"ByAuthor", "ByMovement"}},
  };
  for (const nav::Profile& p : profiles) {
    engine->register_profile(p);
  }

  std::vector<ServerUnderTest> servers;
  servers.push_back({"unbounded", serve::CacheLimits{}, 4, nullptr});
  servers.push_back({"capped",
                     serve::CacheLimits{.base_entries_per_shard = 2,
                                        .overlay_entries_per_shard = 2},
                     4, nullptr});
  servers.push_back({"passthrough",
                     serve::CacheLimits{.base_entries_per_shard = 0,
                                        .overlay_entries_per_shard = 0},
                     4, nullptr});
  for (ServerUnderTest& sut : servers) {
    sut.server = engine->open_concurrent(sut.shards, sut.limits);
  }

  std::vector<std::string> all_paintings;
  for (const auto* node : engine->navigation().nodes_of("PaintingNode")) {
    all_paintings.push_back(node->id());
  }
  const AccessStructureKind kinds[] = {AccessStructureKind::Index,
                                       AccessStructureKind::GuidedTour,
                                       AccessStructureKind::IndexedGuidedTour};
  const std::vector<std::string> family_names{"ByAuthor", "ByMovement"};

  const std::uint64_t seed = 20260729;
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  std::size_t landmark_steps = 0;  // steps checked with landmarks on
  for (int step = 0; step < 110; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op == 0) {
      // Arc edit: the finest-grained structural mutation.
      std::vector<hm::AccessArc> arcs = engine->authored_arcs();
      if (arcs.empty()) continue;
      const std::size_t index =
          static_cast<std::size_t>(rng.below(arcs.size()));
      hm::AccessArc edited = arcs[index];
      edited.title = "edit-" + rng.word(6);
      if (rng.chance(0.3)) edited.to = rng.pick(all_paintings);
      (void)engine->replace_arc(index, edited);
    } else if (op == 1) {
      const auto& members = engine->structure().members();
      const std::string id =
          members[static_cast<std::size_t>(rng.below(members.size()))]
              .node_id;
      (void)engine->retitle_node(id, "title-" + rng.word(5));
    } else if (op == 2) {
      // Grow or shrink the member set (pages appear and retire).
      if (rng.chance(0.5)) {
        std::set<std::string> current;
        for (const auto& m : engine->structure().members()) {
          current.insert(m.node_id);
        }
        std::string candidate;
        for (const auto& id : all_paintings) {
          if (current.find(id) == current.end()) {
            candidate = id;
            break;
          }
        }
        if (candidate.empty()) continue;
        (void)engine->add_node(candidate);
      } else {
        std::vector<hm::Member> members = engine->structure().members();
        if (members.size() < 3) continue;
        members.erase(members.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(members.size())));
        (void)engine->set_access_structure(
            hm::make_access_structure(engine->structure().kind(),
                                      engine->structure().name(),
                                      std::move(members)));
      }
    } else if (op == 3) {
      (void)engine->set_access_structure(
          kinds[static_cast<std::size_t>(rng.below(3))]);
    } else if (op == 4) {
      // Context-family edit: one context's tour order moves.
      const std::string& family_name = rng.pick(family_names);
      (void)engine->edit_context_family(
          family_name, [&](hm::ContextFamily& family) {
            std::vector<hm::NavigationalContext> contexts =
                family.contexts();
            if (contexts.empty()) return;
            auto& context = contexts[static_cast<std::size_t>(
                rng.below(contexts.size()))];
            std::vector<std::string> ids = context.node_ids();
            if (ids.size() < 2) return;
            if (rng.chance(0.5)) {
              std::reverse(ids.begin(), ids.end());
            } else {
              std::rotate(ids.begin(), ids.begin() + 1, ids.end());
            }
            context = hm::NavigationalContext(context.family(),
                                              context.name(),
                                              std::move(ids));
            family.replace_contexts(std::move(contexts));
          });
    } else if (op == 5) {
      // Re-register a profile with a different family list — route
      // names mixed in beside families.
      nav::Profile& victim = profiles[static_cast<std::size_t>(
          rng.below(profiles.size()))];
      victim.families = rng.pick(family_subsets);
      maybe_reference_routes(*engine, rng, victim);
      engine->register_profile(victim);
    } else if (op == 6) {
      engine->rebuild();
    } else if (op == 7) {
      // Route-program churn: register / edit / flip / remove.
      (void)random_route_op(*engine, rng, profiles);
    } else if (op == 8) {
      // Landmark churn: fresh traffic, per_profile toggles, disable.
      random_landmark_op(*engine, rng,
                         navsep::testing::html_pages(*engine), profiles);
    } else {
      // Cache-cap churn: tear one server down and reopen it with fresh
      // random caps (0 = pass-through stays in rotation).
      ServerUnderTest& sut = servers[static_cast<std::size_t>(
          rng.below(servers.size()))];
      const std::size_t cap = rng.below(4);  // 0..3 entries per shard
      sut.limits = serve::CacheLimits{.base_entries_per_shard = cap,
                                      .overlay_entries_per_shard = cap};
      sut.shards = 1 + static_cast<std::size_t>(rng.below(4));
      sut.server = engine->open_concurrent(sut.shards, sut.limits);
      sut.label = "churned@" + std::to_string(step);
    }

    // The differential check, every step: the incremental site equals
    // the from-scratch build, and every server serves exactly it.
    if (!engine->landmark_families().empty()) ++landmark_steps;
    ASSERT_NO_FATAL_FAILURE(expect_sites_identical(
        engine->site(), full_build_oracle(*engine)))
        << "site diverged after step " << step;
    std::map<std::string, std::string> base_bytes;
    for (auto& [path, content] : engine->site().artifacts()) {
      base_bytes.emplace(path, content);
    }
    std::vector<std::pair<nav::Profile, std::map<std::string, std::string>>>
        profile_bytes;
    profile_bytes.reserve(engine->profiles().size());
    for (const nav::Profile& profile : engine->profiles()) {
      profile_bytes.emplace_back(profile, profile_oracle(*engine, profile));
    }
    for (const ServerUnderTest& sut : servers) {
      ASSERT_NO_FATAL_FAILURE(expect_server_differential(
          sut, base_bytes, profile_bytes, step));
    }
  }

  // Landmark churn interleaved with everything else.
  EXPECT_GT(landmark_steps, 0u);

  // The incremental end state must be a fixpoint of the force path.
  std::vector<std::pair<std::string, std::string>> final_state =
      engine->site().artifacts();
  engine->rebuild();
  EXPECT_EQ(engine->site().artifacts(), final_state);
}

/// The published arc state must equal a re-derivation from the served
/// linkbase bytes: parse every linkbase artifact of the current snapshot
/// (links.xml, then the overlay families in order), load and merge the
/// parsed documents, and compare the snapshot's traversal arcs, its arc
/// chunks and their slice hashes, and the engine's arc table, against
/// what that merge yields.
void expect_arc_state_matches_served_linkbases(const nav::Engine& engine,
                                               int step) {
  SCOPED_TRACE("arc state after step " + std::to_string(step));
  const std::shared_ptr<const serve::SiteSnapshot> snap =
      engine.snapshots().current();
  std::vector<std::string> sources{snap->structure_source()};
  for (const auto& family : snap->overlay_families()) {
    sources.push_back(family.source);
  }
  std::vector<std::unique_ptr<navsep::xml::Document>> docs;
  std::vector<xlink::TraversalGraph> graphs;
  graphs.reserve(sources.size());
  for (const std::string& source : sources) {
    const std::shared_ptr<const std::string> body = snap->body(source);
    ASSERT_NE(body, nullptr) << source;
    navsep::xml::ParseOptions options;
    options.base_uri = snap->base() + source;
    docs.push_back(navsep::xml::parse(*body, options));
    graphs.push_back(navsep::core::load_linkbase(*docs.back()));
  }
  xlink::TraversalGraph merged;
  std::vector<navsep::core::SourcedGraph> sourced;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    merged.merge(graphs[i]);
    sourced.push_back({sources[i], &graphs[i]});
  }

  // Traversal arcs: the walk every endpoint through normalize_ref.
  std::map<std::string, std::vector<serve::SnapshotArc>, std::less<>> walked;
  for (const xlink::Arc& arc : merged.arcs()) {
    if (arc.from.uri.empty()) continue;
    const std::string from = xlink::normalize_ref(arc.from.uri);
    walked[from].push_back(serve::SnapshotArc{
        from, xlink::normalize_ref(arc.to.uri), arc.arcrole, arc.title,
        xlink::is_traversable(arc)});
  }
  EXPECT_EQ(snap->traversal_arcs(), walked);

  // Overlay chunks, one per linkbase that authored arcs, and their
  // slice and woven hashes against folds computed here.
  const navsep::core::ArcChunks derived = navsep::testing::chunks_of(
      navsep::core::combined_nav_arcs(sourced));
  ASSERT_NO_FATAL_FAILURE(
      navsep::testing::expect_same_chunks(derived, snap->overlay_arcs()));
  for (const auto& chunk : snap->overlay_arcs()) {
    EXPECT_EQ(chunk->slice_hashes,
              navsep::testing::fold_slice_hashes(chunk->arcs))
        << chunk->source;
    EXPECT_EQ(chunk->woven_hashes,
              navsep::testing::fold_woven_hashes(chunk->arcs))
        << chunk->source;
  }

  // The engine's arc table, field by field, for every resource URI.
  ASSERT_NO_FATAL_FAILURE(
      navsep::testing::expect_same_traversal(merged, engine.arc_table()));
}

// What the engine derives per linkbase record (arcs, arc hashes, overlay
// slice hashes) is recomputed only when that record's text changes and
// reassembled on every arc-table rebuild: across record moves,
// retirements and batches, the published arc state must stay equal to a
// from-the-bytes re-derivation of the served linkbases.
TEST(DifferentialStress, PublishedArcStateEqualsAReparseOfServedLinkbases) {
  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 3,
                        .paintings_per_painter = 3,
                        .movements = 2,
                        .seed = 19})
                    .access(AccessStructureKind::IndexedGuidedTour,
                            "painter-0")
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();
  std::vector<nav::Profile> profiles{{"kiosk", {}},
                                     {"tour", {"ByAuthor"}}};
  for (const nav::Profile& p : profiles) {
    engine->register_profile(p);
  }
  std::vector<std::string> all_paintings;
  for (const auto* node : engine->navigation().nodes_of("PaintingNode")) {
    all_paintings.push_back(node->id());
  }
  const AccessStructureKind kinds[] = {AccessStructureKind::Index,
                                       AccessStructureKind::GuidedTour,
                                       AccessStructureKind::IndexedGuidedTour};
  const std::vector<std::string> family_names{"ByAuthor", "ByMovement"};
  nav::Engine& in = *engine;

  const auto replace_arc = [&](Rng& rng) {
    std::vector<hm::AccessArc> arcs = in.authored_arcs();
    if (arcs.empty()) return;
    const std::size_t index = static_cast<std::size_t>(rng.below(arcs.size()));
    hm::AccessArc edited = arcs[index];
    edited.title = "edit-" + rng.word(6);
    if (rng.chance(0.3)) edited.to = rng.pick(all_paintings);
    (void)in.replace_arc(index, edited);
  };
  const auto retitle = [&](Rng& rng) {
    const auto& members = engine->structure().members();
    (void)in.retitle_node(
        members[static_cast<std::size_t>(rng.below(members.size()))].node_id,
        "title-" + rng.word(5));
  };
  const auto rotate_family = [&](Rng& rng) {
    (void)in.edit_context_family(
        rng.pick(family_names), [&](hm::ContextFamily& family) {
          std::vector<hm::NavigationalContext> contexts = family.contexts();
          if (contexts.empty()) return;
          auto& context =
              contexts[static_cast<std::size_t>(rng.below(contexts.size()))];
          std::vector<std::string> ids = context.node_ids();
          if (ids.size() < 2) return;
          std::rotate(ids.begin(), ids.begin() + 1, ids.end());
          context = hm::NavigationalContext(context.family(), context.name(),
                                            std::move(ids));
          family.replace_contexts(std::move(contexts));
        });
  };

  const std::uint64_t seed = 20261018;
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  bool saw_aot = false;
  bool saw_lazy = false;
  bool saw_landmarks = false;
  int batches = 0;
  ASSERT_NO_FATAL_FAILURE(expect_arc_state_matches_served_linkbases(*engine, -1));
  for (int step = 0; step < 80; ++step) {
    const std::uint64_t op = rng.below(9);
    if (op == 0) {
      replace_arc(rng);
    } else if (op == 1) {
      retitle(rng);
    } else if (op == 2) {
      rotate_family(rng);
    } else if (op == 3) {
      std::set<std::string> current;
      for (const auto& m : engine->structure().members()) {
        current.insert(m.node_id);
      }
      for (const auto& id : all_paintings) {
        if (current.find(id) == current.end()) {
          (void)in.add_node(id);
          break;
        }
      }
    } else if (op == 4) {
      (void)in.set_access_structure(
          kinds[static_cast<std::size_t>(rng.below(3))]);
    } else if (op == 5 || op == 6) {
      (void)random_route_op(in, rng, profiles);
    } else if (op == 7) {
      random_landmark_op(in, rng, navsep::testing::html_pages(*engine),
                         profiles);
    } else {
      // One burst, one run: records move and re-derive inside a batch.
      in.begin_batch();
      retitle(rng);
      replace_arc(rng);
      rotate_family(rng);
      (void)random_route_op(in, rng, profiles);
      (void)in.commit_batch();
      ++batches;
    }
    for (const nav::RouteProgram& program : in.routes()) {
      (program.compile == nav::RouteCompile::Aot ? saw_aot : saw_lazy) = true;
    }
    saw_landmarks = saw_landmarks || !in.landmark_families().empty();
    ASSERT_NO_FATAL_FAILURE(
        expect_arc_state_matches_served_linkbases(*engine, step));
  }
  EXPECT_TRUE(saw_aot);
  EXPECT_TRUE(saw_lazy);
  EXPECT_TRUE(saw_landmarks);
  EXPECT_GT(batches, 0);
}

// The replicated-reader variant: the same randomized mutation mix runs
// on the origin, but every served body is checked through a replica
// that has only ever seen the publisher's frame stream over a real
// socket — FULL on connect, deltas after. After EVERY step the replica
// must catch up to the origin's epoch and serve (base + per-profile,
// through an unmodified ConcurrentServer over ITS OWN store) exactly
// the full-build oracle's bytes. Twice mid-sequence the replica is
// killed, the origin mutates on without it, and a fresh replica
// reconnects — the mid-stream resync must converge every time.
TEST(DifferentialStress, ReplicatedReaderServesOnlyOracleBytes) {
  namespace repl = navsep::repl;

  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 3,
                        .paintings_per_painter = 3,
                        .movements = 2,
                        .seed = 23})
                    .access(AccessStructureKind::Index, "painter-0")
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();

  const std::vector<std::vector<std::string>> family_subsets{
      {}, {"ByAuthor"}, {"ByMovement"}, {"ByAuthor", "ByMovement"},
      {"ByMovement", "ByAuthor"}};
  std::vector<nav::Profile> profiles{
      {"kiosk", {}},
      {"tour", {"ByAuthor"}},
      {"everything", {"ByAuthor", "ByMovement"}},
  };
  for (const nav::Profile& p : profiles) {
    engine->register_profile(p);
  }

  auto publisher =
      engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));
  auto connect_replica = [&] {
    auto replica = std::make_unique<repl::Replica>(
        repl::Connection::connect(publisher->endpoint()));
    replica->start();
    return replica;
  };
  std::unique_ptr<repl::Replica> replica = connect_replica();
  std::unique_ptr<serve::ConcurrentServer> server;  // rebuilt on resync
  std::size_t reconnects = 0;

  std::vector<std::string> all_paintings;
  for (const auto* node : engine->navigation().nodes_of("PaintingNode")) {
    all_paintings.push_back(node->id());
  }
  const AccessStructureKind kinds[] = {AccessStructureKind::Index,
                                       AccessStructureKind::GuidedTour,
                                       AccessStructureKind::IndexedGuidedTour};
  const std::vector<std::string> family_names{"ByAuthor", "ByMovement"};

  const std::uint64_t seed = 20260807;
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  std::size_t landmark_steps = 0;  // steps checked with landmarks on
  for (int step = 0; step < 110; ++step) {
    // Kill-and-resync: the replica dies, the origin mutates on without
    // it (building an epoch gap — route mutations included, so route
    // tables must survive the mid-stream FULL resync), and a new one
    // connects mid-stream.
    if (step == 35 || step == 75) {
      server.reset();
      replica.reset();
      for (int burst = 0; burst < 4; ++burst) {
        const auto& members = engine->structure().members();
        const std::string id =
            members[static_cast<std::size_t>(rng.below(members.size()))]
                .node_id;
        (void)engine->retitle_node(id, "gap-" + rng.word(5));
      }
      (void)random_route_op(*engine, rng, profiles);
      random_landmark_op(*engine, rng,
                         navsep::testing::html_pages(*engine), profiles);
      replica = connect_replica();
      ++reconnects;
    }

    const std::uint64_t op = rng.below(9);
    if (op == 0) {
      std::vector<hm::AccessArc> arcs = engine->authored_arcs();
      if (arcs.empty()) continue;
      const std::size_t index =
          static_cast<std::size_t>(rng.below(arcs.size()));
      hm::AccessArc edited = arcs[index];
      edited.title = "edit-" + rng.word(6);
      if (rng.chance(0.3)) edited.to = rng.pick(all_paintings);
      (void)engine->replace_arc(index, edited);
    } else if (op == 1) {
      const auto& members = engine->structure().members();
      const std::string id =
          members[static_cast<std::size_t>(rng.below(members.size()))]
              .node_id;
      (void)engine->retitle_node(id, "title-" + rng.word(5));
    } else if (op == 2) {
      if (rng.chance(0.5)) {
        std::set<std::string> current;
        for (const auto& m : engine->structure().members()) {
          current.insert(m.node_id);
        }
        std::string candidate;
        for (const auto& id : all_paintings) {
          if (current.find(id) == current.end()) {
            candidate = id;
            break;
          }
        }
        if (candidate.empty()) continue;
        (void)engine->add_node(candidate);
      } else {
        std::vector<hm::Member> members = engine->structure().members();
        if (members.size() < 3) continue;
        members.erase(members.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(members.size())));
        (void)engine->set_access_structure(
            hm::make_access_structure(engine->structure().kind(),
                                      engine->structure().name(),
                                      std::move(members)));
      }
    } else if (op == 3) {
      (void)engine->set_access_structure(
          kinds[static_cast<std::size_t>(rng.below(3))]);
    } else if (op == 4) {
      const std::string& family_name = rng.pick(family_names);
      (void)engine->edit_context_family(
          family_name, [&](hm::ContextFamily& family) {
            std::vector<hm::NavigationalContext> contexts =
                family.contexts();
            if (contexts.empty()) return;
            auto& context = contexts[static_cast<std::size_t>(
                rng.below(contexts.size()))];
            std::vector<std::string> ids = context.node_ids();
            if (ids.size() < 2) return;
            if (rng.chance(0.5)) {
              std::reverse(ids.begin(), ids.end());
            } else {
              std::rotate(ids.begin(), ids.begin() + 1, ids.end());
            }
            context = hm::NavigationalContext(context.family(),
                                              context.name(),
                                              std::move(ids));
            family.replace_contexts(std::move(contexts));
          });
    } else if (op == 5) {
      nav::Profile& victim = profiles[static_cast<std::size_t>(
          rng.below(profiles.size()))];
      victim.families = rng.pick(family_subsets);
      maybe_reference_routes(*engine, rng, victim);
      engine->register_profile(victim);
    } else if (op == 6) {
      engine->rebuild();
    } else if (op == 7) {
      // Route-program churn on the origin: the table must replicate.
      (void)random_route_op(*engine, rng, profiles);
    } else {
      // Landmark churn: the landmark artifacts must replicate.
      random_landmark_op(*engine, rng,
                         navsep::testing::html_pages(*engine), profiles);
    }

    // The replica must catch up to the origin's exact epoch…
    const std::uint64_t target = engine->snapshots().epoch();
    if (!engine->landmark_families().empty()) ++landmark_steps;
    ASSERT_TRUE(replica->wait_for_epoch(target,
                                        std::chrono::seconds(60)))
        << "step " << step << ": replica stuck at epoch "
        << replica->stats().epoch << " (target " << target
        << "): " << replica->error();
    if (server == nullptr) {
      server = std::make_unique<serve::ConcurrentServer>(replica->store(), 4);
    }

    // The replica holds the origin's chunks, in order and with ordinals.
    ASSERT_NO_FATAL_FAILURE(navsep::testing::expect_same_chunks(
        engine->snapshots().current()->overlay_arcs(),
        replica->store().current()->overlay_arcs()))
        << "step " << step;

    // The replicated route table is byte-for-byte the origin's — across
    // deltas (carry or inline) AND across the kill-and-resync FULLs.
    {
      const auto origin_routes =
          engine->snapshots().current()->route_table();
      const auto replica_routes = replica->store().current()->route_table();
      ASSERT_EQ(origin_routes == nullptr, replica_routes == nullptr)
          << "step " << step;
      if (origin_routes != nullptr) {
        ASSERT_TRUE(*origin_routes == *replica_routes)
            << "step " << step << ": route table diverged across the wire";
      }
    }

    // …and serve exactly the oracle's bytes, base and per-profile,
    // through an unmodified ConcurrentServer over the replicated store.
    std::map<std::string, std::string> base_bytes;
    for (auto& [path, content] : engine->site().artifacts()) {
      base_bytes.emplace(path, content);
    }
    std::vector<std::pair<nav::Profile, std::map<std::string, std::string>>>
        profile_bytes;
    profile_bytes.reserve(engine->profiles().size());
    for (const nav::Profile& profile : engine->profiles()) {
      profile_bytes.emplace_back(profile, profile_oracle(*engine, profile));
    }
    ServerUnderTest replicated{"replicated", serve::CacheLimits{}, 4,
                               std::move(server)};
    ASSERT_NO_FATAL_FAILURE(expect_server_differential(
        replicated, base_bytes, profile_bytes, step));
    server = std::move(replicated.server);
  }

  // The stream really exercised both frame kinds and both resyncs, with
  // landmark artifacts among the replicated state.
  EXPECT_EQ(reconnects, 2u);
  EXPECT_GT(landmark_steps, 0u);
  const repl::ReplicaStats rs = replica->stats();
  EXPECT_GE(rs.deltas_applied, 1u);
  EXPECT_GE(rs.fulls_applied, 1u);
  EXPECT_EQ(rs.epoch, engine->snapshots().epoch());
}

// The batched variant: the same mutation mix, but grouped into
// randomized-size begin_batch()/commit_batch() bursts. The invariants
// under test, after EVERY commit: the coalesced report counts every
// edit, a K-edit burst advances the snapshot epoch by exactly ONE, a
// live replica fed by a real repl::Publisher applies exactly ONE delta
// for the whole burst, and both the origin site and the replica-served
// bytes equal the full-build oracle of the final batched state.
TEST(DifferentialStress, BatchedBurstsPublishOneDeltaAndServeOracleBytes) {
  namespace repl = navsep::repl;

  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 3,
                        .paintings_per_painter = 3,
                        .movements = 2,
                        .seed = 29})
                    .access(AccessStructureKind::Index, "painter-0")
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();

  const std::vector<std::vector<std::string>> family_subsets{
      {}, {"ByAuthor"}, {"ByMovement"}, {"ByAuthor", "ByMovement"}};
  std::vector<nav::Profile> profiles{
      {"kiosk", {}},
      {"tour", {"ByAuthor"}},
  };
  for (const nav::Profile& p : profiles) {
    engine->register_profile(p);
  }

  auto publisher =
      engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));
  auto replica = std::make_unique<repl::Replica>(
      repl::Connection::connect(publisher->endpoint()));
  replica->start();
  ASSERT_TRUE(replica->wait_for_epoch(engine->snapshots().epoch(),
                                      std::chrono::seconds(60)));
  auto replica_server =
      std::make_unique<serve::ConcurrentServer>(replica->store(), 4);

  std::vector<std::string> all_paintings;
  for (const auto* node : engine->navigation().nodes_of("PaintingNode")) {
    all_paintings.push_back(node->id());
  }
  const AccessStructureKind kinds[] = {AccessStructureKind::Index,
                                       AccessStructureKind::GuidedTour,
                                       AccessStructureKind::IndexedGuidedTour};
  const std::vector<std::string> family_names{"ByAuthor", "ByMovement"};

  const std::uint64_t seed = 20260808;
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  std::size_t landmark_steps = 0;  // steps checked with landmarks on
  for (int round = 0; round < 30; ++round) {
    const std::uint64_t epoch_before = engine->snapshots().epoch();
    const std::uint64_t deltas_before = replica->stats().deltas_applied;
    const std::size_t burst = 1 + static_cast<std::size_t>(rng.below(6));

    engine->begin_batch();
    std::size_t applied = 0;
    for (std::size_t k = 0; k < burst; ++k) {
      const std::uint64_t op = rng.below(9);
      if (op == 0) {
        std::vector<hm::AccessArc> arcs = engine->authored_arcs();
        if (arcs.empty()) continue;
        const std::size_t index =
            static_cast<std::size_t>(rng.below(arcs.size()));
        hm::AccessArc edited = arcs[index];
        edited.title = "edit-" + rng.word(6);
        if (rng.chance(0.3)) edited.to = rng.pick(all_paintings);
        (void)engine->replace_arc(index, edited);
      } else if (op == 1) {
        const auto& members = engine->structure().members();
        const std::string id =
            members[static_cast<std::size_t>(rng.below(members.size()))]
                .node_id;
        (void)engine->retitle_node(id, "title-" + rng.word(5));
      } else if (op == 2) {
        if (rng.chance(0.5)) {
          std::set<std::string> current;
          for (const auto& m : engine->structure().members()) {
            current.insert(m.node_id);
          }
          std::string candidate;
          for (const auto& id : all_paintings) {
            if (current.find(id) == current.end()) {
              candidate = id;
              break;
            }
          }
          if (candidate.empty()) continue;
          (void)engine->add_node(candidate);
        } else {
          std::vector<hm::Member> members = engine->structure().members();
          if (members.size() < 3) continue;
          members.erase(members.begin() + static_cast<std::ptrdiff_t>(
                                              rng.below(members.size())));
          (void)engine->set_access_structure(
              hm::make_access_structure(engine->structure().kind(),
                                        engine->structure().name(),
                                        std::move(members)));
        }
      } else if (op == 3) {
        (void)engine->set_access_structure(
            kinds[static_cast<std::size_t>(rng.below(3))]);
      } else if (op == 4) {
        const std::string& family_name = rng.pick(family_names);
        (void)engine->edit_context_family(
            family_name, [&](hm::ContextFamily& family) {
              std::vector<hm::NavigationalContext> contexts =
                  family.contexts();
              if (contexts.empty()) return;
              auto& context = contexts[static_cast<std::size_t>(
                  rng.below(contexts.size()))];
              std::vector<std::string> ids = context.node_ids();
              if (ids.size() < 2) return;
              std::reverse(ids.begin(), ids.end());
              context = hm::NavigationalContext(context.family(),
                                                context.name(),
                                                std::move(ids));
              family.replace_contexts(std::move(contexts));
            });
      } else if (op == 5) {
        nav::Profile& victim = profiles[static_cast<std::size_t>(
            rng.below(profiles.size()))];
        victim.families = rng.pick(family_subsets);
        maybe_reference_routes(*engine, rng, victim);
        engine->register_profile(victim);
      } else if (op == 6) {
        engine->rebuild();
      } else if (op == 7) {
        // Landmark churn inside the batch: enable/disable is one edit.
        random_landmark_op(*engine, rng,
                           navsep::testing::html_pages(*engine), profiles);
      } else {
        // Route churn inside the batch: a removal may re-register
        // referencing profiles first, so it contributes several edits —
        // the helper reports how many it applied.
        applied += random_route_op(*engine, rng, profiles);
        continue;
      }
      ++applied;
    }

    nav::RebuildReport report = engine->commit_batch();
    if (!engine->landmark_families().empty()) ++landmark_steps;
    ASSERT_EQ(report.edits_coalesced, applied) << "round " << round;
    const std::uint64_t epoch_after = engine->snapshots().epoch();
    if (applied == 0) {
      ASSERT_EQ(epoch_after, epoch_before) << "round " << round;
      continue;
    }
    ASSERT_EQ(report.epochs_published, 1u) << "round " << round;
    ASSERT_EQ(epoch_after, epoch_before + 1)
        << "round " << round << ": a " << applied
        << "-edit burst must publish exactly one epoch";

    // The origin equals the from-scratch oracle of the batched state.
    ASSERT_NO_FATAL_FAILURE(expect_sites_identical(
        engine->site(), full_build_oracle(*engine)))
        << "site diverged after round " << round;

    // The publisher streamed the whole burst as exactly ONE delta.
    ASSERT_TRUE(replica->wait_for_epoch(epoch_after,
                                        std::chrono::seconds(60)))
        << "round " << round << ": replica stuck at epoch "
        << replica->stats().epoch << ": " << replica->error();
    const repl::ReplicaStats rs = replica->stats();
    ASSERT_EQ(rs.deltas_applied, deltas_before + 1) << "round " << round;

    // And the replica serves the origin's exact bytes.
    std::map<std::string, std::string> base_bytes;
    for (auto& [path, content] : engine->site().artifacts()) {
      base_bytes.emplace(path, content);
    }
    std::vector<std::pair<nav::Profile, std::map<std::string, std::string>>>
        profile_bytes;
    for (const nav::Profile& profile : engine->profiles()) {
      profile_bytes.emplace_back(profile, profile_oracle(*engine, profile));
    }
    ServerUnderTest replicated{"batched-replica", serve::CacheLimits{}, 4,
                               std::move(replica_server)};
    ASSERT_NO_FATAL_FAILURE(expect_server_differential(
        replicated, base_bytes, profile_bytes, round));
    replica_server = std::move(replicated.server);
  }

  EXPECT_GT(landmark_steps, 0u);

  // The batched end state must be a fixpoint of the force path.
  std::vector<std::pair<std::string, std::string>> final_state =
      engine->site().artifacts();
  engine->rebuild();
  EXPECT_EQ(engine->site().artifacts(), final_state);
}

// The warming variant: a CacheWarmer's background lane races organic
// reader threads AND an epoch-publishing writer over one bounded
// server. The writer flips the site between two known states, so every
// read must match one of the two oracles (A or B) — a warmed entry that
// leaked stale bytes past its validity check, or an eviction forced by
// warming, would show up as a torn read or a broken ledger. Run under
// TSan this is also the warmer's data-race gate.
TEST(DifferentialStress, WarmerLaneRacesTrafficAndChurnWithoutDivergence) {
  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 2,
                        .paintings_per_painter = 4,
                        .movements = 2,
                        .seed = 31})
                    .access(AccessStructureKind::IndexedGuidedTour)
                    .contexts({"ByAuthor"})
                    .weave()
                    .serve();
  const nav::Profile tour{"tour", {"ByAuthor"}};
  engine->register_profile(tour);

  // Two site states, flipped by retitling one member: capture both
  // oracles (base + profile) up front.
  using Bytes = std::map<std::string, std::string>;
  const auto capture = [&] {
    Bytes base;
    for (auto& [path, content] : engine->site().artifacts()) {
      base.emplace(path, content);
    }
    return std::pair<Bytes, Bytes>{std::move(base),
                                   profile_oracle(*engine, tour)};
  };
  const std::string flip_id = engine->structure().members().front().node_id;
  (void)engine->retitle_node(flip_id, "Flip State A");
  const auto [base_a, tour_a] = capture();
  (void)engine->retitle_node(flip_id, "Flip State B");
  const auto [base_b, tour_b] = capture();

  auto server = engine->open_concurrent(
      4, serve::CacheLimits{.base_entries_per_shard = 4,
                            .overlay_entries_per_shard = 4});
  const std::vector<std::string> pages =
      navsep::testing::html_pages(*engine);

  // The warmer's feed covers every page on both layers — more than the
  // caps admit, so NoRoom races organic insertion constantly.
  serve::CacheWarmer warmer(
      *server, serve::CacheWarmer::Options{
                   .top_n = pages.size() * 2,
                   .poll = std::chrono::milliseconds(1)});
  std::vector<navsep::obs::HotEntry> feed;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const std::uint64_t views = static_cast<std::uint64_t>(100 - i);
    feed.push_back({pages[i], "", views});
    feed.push_back({pages[i], tour.name, views});
  }
  warmer.set_feed(std::move(feed));
  warmer.start();

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> torn{0};
  constexpr std::size_t kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const bool profiled = r % 2 == 1;
      const Bytes& a = profiled ? tour_a : base_a;
      const Bytes& b = profiled ? tour_b : base_b;
      std::size_t i = r;
      while (!done.load(std::memory_order_acquire)) {
        const std::string& path = pages[i++ % pages.size()];
        site::Response resp = profiled ? server->get(path, tour.name)
                                       : server->get(path);
        if (!resp.ok()) continue;
        reads.fetch_add(1, std::memory_order_relaxed);
        const std::string& body = *resp.body;
        auto ia = a.find(path);
        auto ib = b.find(path);
        const bool matches = (ia != a.end() && body == ia->second) ||
                             (ib != b.end() && body == ib->second);
        if (!matches) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  constexpr std::size_t kFlips = 24;
  for (std::size_t w = 0; w < kFlips; ++w) {
    (void)engine->retitle_node(
        flip_id, w % 2 == 0 ? "Flip State A" : "Flip State B");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  warmer.stop();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);

  // The warmer's accounting identity held across every racing cycle.
  const serve::CacheWarmer::WarmStats ws = warmer.stats();
  EXPECT_GT(ws.cycles, 0u);
  EXPECT_EQ(ws.attempted,
            ws.warmed + ws.already_hot + ws.no_room + ws.not_found);

  // At rest: caps held, ledger balances, and every served body equals
  // the final oracle exactly.
  ServerUnderTest sut{"warmed", server->limits(), server->shard_count(),
                      nullptr};
  Bytes base_bytes;
  for (auto& [path, content] : engine->site().artifacts()) {
    base_bytes.emplace(path, content);
  }
  std::vector<std::pair<nav::Profile, Bytes>> profile_bytes;
  profile_bytes.emplace_back(tour, profile_oracle(*engine, tour));
  sut.server = std::move(server);
  ASSERT_NO_FATAL_FAILURE(expect_server_differential(
      sut, base_bytes, profile_bytes, static_cast<int>(kFlips)));
}

}  // namespace
