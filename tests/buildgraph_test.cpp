// The incremental rebuild engine: BuildGraph mechanism tests, the
// byte-identity property (incremental output == from-scratch build) over
// randomized edit sequences, change-impact locality, provenance, and the
// stale-cache regression (navigate → mutate → re-navigate).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "nav/buildgraph.hpp"
#include "nav/pipeline.hpp"
#include "oracle.hpp"
#include "site/virtual_site.hpp"

namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace site = navsep::site;
using navsep::museum::MuseumWorld;
using navsep::museum::SyntheticSpec;
using navsep::testing::expect_sites_identical;
using navsep::testing::full_build_oracle;

namespace {

// --- BuildGraph mechanism -----------------------------------------------------

TEST(BuildGraphMechanism, RunsDirtyNodesInDependencyOrder) {
  nav::BuildGraph g;
  std::vector<std::string> ran;
  g.define("c", nav::ProductKind::ArcTable, {"b"}, [&] {
    ran.push_back("c");
    return navsep::hash_bytes("c1");
  });
  g.define("a", nav::ProductKind::Source, {}, [&] {
    ran.push_back("a");
    return navsep::hash_bytes("a1");
  });
  g.define("b", nav::ProductKind::Linkbase, {"a"}, [&] {
    ran.push_back("b");
    return navsep::hash_bytes("b1");
  });
  nav::RebuildReport r = g.run();
  EXPECT_EQ(ran, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(r.nodes_rebuilt, 3u);
  EXPECT_EQ(r.nodes_changed, 3u);

  // A clean graph runs nothing.
  ran.clear();
  r = g.run();
  EXPECT_TRUE(ran.empty());
  EXPECT_EQ(r.nodes_dirty, 0u);
}

TEST(BuildGraphMechanism, EarlyCutoffStopsPropagation) {
  nav::BuildGraph g;
  int source_version = 1;
  std::vector<std::string> ran;
  g.define("src", nav::ProductKind::Source, {}, [&] {
    ran.push_back("src");
    return navsep::hash_bytes("stable");  // same product every time
  });
  g.define("page", nav::ProductKind::ArcTable, {"src"}, [&] {
    ran.push_back("page");
    return navsep::hash_bytes("page" + std::to_string(source_version));
  });
  (void)g.run();
  ran.clear();

  // Source re-runs but hashes the same: the page must NOT re-run.
  g.mark_dirty("src");
  nav::RebuildReport r = g.run();
  EXPECT_EQ(ran, (std::vector<std::string>{"src"}));
  EXPECT_EQ(r.nodes_changed, 0u);
}

TEST(BuildGraphMechanism, HashChangePropagatesTransitively) {
  nav::BuildGraph g;
  int v = 1;
  std::vector<std::string> ran;
  g.define("a", nav::ProductKind::Source, {},
           [&] { return navsep::hash_bytes("a" + std::to_string(v)); });
  g.define("b", nav::ProductKind::Linkbase, {"a"}, [&] {
    ran.push_back("b");
    return navsep::hash_bytes("b" + std::to_string(v));
  });
  g.define("c", nav::ProductKind::ArcTable, {"b"}, [&] {
    ran.push_back("c");
    return navsep::hash_bytes("c" + std::to_string(v));
  });
  (void)g.run();
  ran.clear();
  v = 2;
  g.mark_dirty("a");
  (void)g.run();
  EXPECT_EQ(ran, (std::vector<std::string>{"b", "c"}));
}

TEST(BuildGraphMechanism, RedefinedNodeRerunsButKeepsItsHashForCutoff) {
  // The engine re-points its arc-table node whenever the linkbase set
  // changes. Redefinition dirties the node, so it re-runs once; its
  // stored hash survives, so an unchanged product stops there.
  nav::BuildGraph g;
  std::vector<std::string> ran;
  g.define("src", nav::ProductKind::Source, {},
           [] { return navsep::hash_bytes("src"); });
  g.define("table", nav::ProductKind::ArcTable, {"src"}, [&] {
    ran.push_back("table");
    return navsep::hash_bytes("table");
  });
  g.define("page", nav::ProductKind::ArcTable, {"table"}, [&] {
    ran.push_back("page");
    return navsep::hash_bytes("page");
  });
  (void)g.run();
  const std::uint64_t stored = g.hash_of("table");
  ran.clear();

  g.define("table", nav::ProductKind::ArcTable, {"src", "extra"}, [&] {
    ran.push_back("table2");
    return navsep::hash_bytes("table");  // same product
  });
  EXPECT_TRUE(g.is_dirty("table"));
  EXPECT_EQ(g.hash_of("table"), stored);
  nav::RebuildReport r = g.run();
  EXPECT_EQ(ran, (std::vector<std::string>{"table2"}));
  EXPECT_EQ(r.nodes_rebuilt, 1u);
  EXPECT_EQ(r.nodes_changed, 0u);

  // A redefinition whose product does change propagates as usual.
  ran.clear();
  g.define("table", nav::ProductKind::ArcTable, {"src"}, [&] {
    ran.push_back("table3");
    return navsep::hash_bytes("table v3");
  });
  (void)g.run();
  EXPECT_EQ(ran, (std::vector<std::string>{"table3", "page"}));
}

TEST(BuildGraphMechanism, TopologyIsFixedWhileRunning) {
  // run() makes one pass over the plan it computed at its start, so a
  // rebuild callback may not move the topology: define() and remove()
  // throw, the graph keeps the nodes it had, and the caller's node stays
  // dirty like any node whose rebuild throws.
  nav::BuildGraph g;
  std::function<void()> mutate;
  g.define("root", nav::ProductKind::Source, {}, [&] {
    if (mutate) mutate();
    return navsep::hash_bytes("root");
  });
  g.define("victim", nav::ProductKind::Source, {},
           [] { return navsep::hash_bytes("victim"); });

  mutate = [&] {
    g.define("leaf", nav::ProductKind::ArcTable, {"root"},
             [] { return navsep::hash_bytes("leaf"); });
  };
  EXPECT_THROW((void)g.run(), navsep::SemanticError);
  EXPECT_FALSE(g.contains("leaf"));
  EXPECT_TRUE(g.is_dirty("root"));
  EXPECT_EQ(g.hash_of("root"), 0u);

  mutate = [&] { (void)g.remove("victim"); };
  EXPECT_THROW((void)g.run(), navsep::SemanticError);
  EXPECT_TRUE(g.contains("victim"));
  EXPECT_TRUE(g.is_dirty("root"));

  // Between runs the topology moves as usual, and the next run builds
  // what the failed ones left.
  mutate = nullptr;
  g.define("leaf", nav::ProductKind::ArcTable, {"root"},
           [] { return navsep::hash_bytes("leaf"); });
  const nav::RebuildReport r = g.run();
  EXPECT_EQ(r.nodes_rebuilt, 3u);  // root, victim, leaf
  EXPECT_FALSE(g.is_dirty("root"));
  EXPECT_FALSE(g.is_dirty("leaf"));
}

TEST(BuildGraphMechanism, RemovedNodesStopBuilding) {
  nav::BuildGraph g;
  g.define("a", nav::ProductKind::Source, {},
           [&] { return navsep::hash_bytes("a"); });
  g.define("b", nav::ProductKind::ArcTable, {"a"},
           [&] { return navsep::hash_bytes("b"); });
  (void)g.run();
  EXPECT_TRUE(g.remove("b"));
  EXPECT_FALSE(g.remove("b"));
  g.mark_all_dirty();
  nav::RebuildReport r = g.run();
  EXPECT_EQ(r.nodes_rebuilt, 1u);
  EXPECT_FALSE(g.contains("b"));
}

TEST(BuildGraphMechanism, CycleThrows) {
  nav::BuildGraph g;
  g.define("a", nav::ProductKind::Source, {"b"},
           [] { return std::uint64_t{1}; });
  g.define("b", nav::ProductKind::Source, {"a"},
           [] { return std::uint64_t{2}; });
  EXPECT_THROW((void)g.run(), navsep::SemanticError);
}

// --- engine helpers ------------------------------------------------------------
//
// The from-scratch oracle and the byte-identity assertion live in
// tests/oracle.{hpp,cpp}, shared with overlay_test and stress_test.

std::unique_ptr<nav::Engine> paper_engine(hm::AccessStructureKind kind) {
  return nav::SitePipeline()
      .paper_museum()
      .access(kind, "picasso")
      .contexts({"ByAuthor"})
      .weave()
      .serve();
}

std::unique_ptr<nav::Engine> synthetic_engine(std::size_t paintings,
                                              hm::AccessStructureKind kind) {
  return nav::SitePipeline()
      .conceptual(SyntheticSpec{.painters = 2,
                                .paintings_per_painter = paintings,
                                .movements = 3,
                                .seed = 7})
      .access(kind, "painter-0")
      .weave()
      .serve();
}

// --- incremental == full, single edits -----------------------------------------

TEST(IncrementalEngine, InitialServeMatchesBatchBuild) {
  auto engine = paper_engine(hm::AccessStructureKind::IndexedGuidedTour);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(IncrementalEngine, ReplaceArcReweavesExactlyOnePage) {
  auto engine = synthetic_engine(10, hm::AccessStructureKind::Index);
  const std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  // An "up" arc lives on exactly one member page.
  auto it = std::find_if(arcs.begin(), arcs.end(), [](const hm::AccessArc& a) {
    return a.role == hm::roles::kUp;
  });
  ASSERT_NE(it, arcs.end());
  hm::AccessArc edited = *it;
  edited.title = "Back to the collection";

  nav::RebuildReport r = engine->replace_arc(
      static_cast<std::size_t>(it - arcs.begin()), edited);
  EXPECT_EQ(r.pages_rewoven, 1u);
  EXPECT_EQ(r.pages_total, engine->structure().members().size() + 1);
  EXPECT_EQ(r.linkbases_reauthored, 1u);
  EXPECT_EQ(r.edits_coalesced, 1u);
  EXPECT_EQ(r.epochs_published, 1u);

  const std::string* page =
      engine->site().get(navsep::core::default_href_for(edited.from));
  ASSERT_NE(page, nullptr);
  EXPECT_NE(page->find("Back to the collection"), std::string::npos);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // The widest edit, a structure-kind swap, re-weaves across the site in
  // one run and one epoch and still lands on the oracle.
  nav::RebuildReport swap =
      engine->set_access_structure(hm::AccessStructureKind::GuidedTour);
  EXPECT_GT(swap.pages_rewoven, 1u);
  EXPECT_EQ(swap.edits_coalesced, 1u);
  EXPECT_EQ(swap.epochs_published, 1u);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(IncrementalEngine, RetitleNodeReweavesOnlyReferencingPages) {
  auto engine = paper_engine(hm::AccessStructureKind::IndexedGuidedTour);
  // Retitling the middle member (guernica) changes anchors on: the index
  // page (entry), guitar (Next: ...), avignon (Previous: ...). Guernica's
  // own page only carries anchors *to* others and stays untouched —
  // navigation labels are not content.
  const std::string* guernica_before = engine->site().get("guernica.html");
  ASSERT_NE(guernica_before, nullptr);
  const std::string before_copy = *guernica_before;

  nav::RebuildReport r = engine->retitle_node("guernica", "Guernica (1937)");
  EXPECT_EQ(r.pages_rewoven, 3u);
  EXPECT_EQ(r.pages_total, 4u);

  EXPECT_EQ(*engine->site().get("guernica.html"), before_copy);
  const std::string* guitar = engine->site().get("guitar.html");
  ASSERT_NE(guitar, nullptr);
  EXPECT_NE(guitar->find("Guernica (1937)"), std::string::npos);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(IncrementalEngine, KindSwapLeavesIndexPageAlone) {
  // The paper's §5 change request: Index → IndexedGuidedTour. The index
  // star is a subset of the IGT arc set, so the index page's slice is
  // unchanged — only member pages gain tour anchors.
  auto engine = synthetic_engine(10, hm::AccessStructureKind::Index);
  const std::size_t members = engine->structure().members().size();
  nav::RebuildReport r =
      engine->set_access_structure(hm::AccessStructureKind::IndexedGuidedTour);
  EXPECT_EQ(r.pages_rewoven, members);
  EXPECT_EQ(r.pages_total, members + 1);
  EXPECT_EQ(engine->structure().kind(),
            hm::AccessStructureKind::IndexedGuidedTour);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(IncrementalEngine, AddNodeWeavesTheNewPage) {
  auto engine = synthetic_engine(5, hm::AccessStructureKind::IndexedGuidedTour);
  // Pick a painting node that is not yet a member (painter-1's work).
  std::set<std::string> members;
  for (const auto& m : engine->structure().members()) members.insert(m.node_id);
  std::string newcomer;
  for (const auto* node : engine->navigation().nodes_of("PaintingNode")) {
    if (members.find(node->id()) == members.end()) {
      newcomer = node->id();
      break;
    }
  }
  ASSERT_FALSE(newcomer.empty());
  const std::string path = navsep::core::default_href_for(newcomer);
  EXPECT_EQ(engine->site().get(path), nullptr);

  nav::RebuildReport r = engine->add_node(newcomer);
  EXPECT_NE(engine->site().get(path), nullptr);
  EXPECT_EQ(r.pages_total, members.size() + 2);
  // New page + index page (new entry) + old tail (new Next anchor).
  EXPECT_EQ(r.pages_rewoven, 3u);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  EXPECT_THROW((void)engine->add_node(newcomer), navsep::SemanticError);
  EXPECT_THROW((void)engine->add_node("no-such-node"),
               navsep::ResolutionError);
}

TEST(IncrementalEngine, ShrinkingTheStructureRetiresPages) {
  auto engine = synthetic_engine(6, hm::AccessStructureKind::Index);
  std::vector<hm::Member> members = engine->structure().members();
  const std::string dropped = members.back().node_id;
  const std::string dropped_path = navsep::core::default_href_for(dropped);

  // Warm the response cache on the soon-to-vanish page.
  ASSERT_TRUE(engine->server().get(dropped_path).ok());

  members.pop_back();
  std::vector<hm::Member> kept = members;
  nav::RebuildReport r = engine->set_access_structure(
      hm::make_access_structure(hm::AccessStructureKind::Index,
                                engine->structure().name(), std::move(kept)));
  EXPECT_EQ(r.pages_total, members.size() + 1);
  EXPECT_EQ(engine->site().get(dropped_path), nullptr);
  // The cached 200 must be gone with the page in the new epoch (it held
  // the removed artifact's bytes — ASan guards the dangling case).
  EXPECT_EQ(engine->server().get(dropped_path).status, 404);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(IncrementalEngine, MenuMutationsRegenerateSubStructureArcs) {
  // A constructed Menu's sub-structures are captured as build-graph
  // inputs, so member-level mutations regenerate its derived arcs
  // instead of throwing: retitle_node edits the sub holding the member,
  // add_node appends to the last sub, set_access_structure(Menu)
  // refreshes from the captured subs — all byte-identical to a full
  // build of the regenerated Menu.
  auto engine = synthetic_engine(4, hm::AccessStructureKind::Index);
  const std::vector<hm::Member> wing_members = engine->structure().members();
  std::vector<std::unique_ptr<hm::AccessStructure>> subs;
  subs.push_back(hm::make_access_structure(hm::AccessStructureKind::Index,
                                           "wing-a", wing_members));
  (void)engine->set_access_structure(
      std::make_unique<hm::Menu>("floors", std::move(subs)));
  EXPECT_EQ(engine->structure().kind(), hm::AccessStructureKind::Menu);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // Retitle a painting member inside the sub: the sub's derived arcs
  // regenerate and the site matches a from-scratch build.
  const std::string member = wing_members.front().node_id;
  nav::RebuildReport r = engine->retitle_node(member, "Renamed Piece");
  EXPECT_GT(r.nodes_rebuilt, 0u);
  bool renamed = false;
  for (const auto& arc : engine->authored_arcs()) {
    if (arc.to == member && arc.title == "Renamed Piece") renamed = true;
  }
  EXPECT_TRUE(renamed);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // A no-op retitle cuts off at the spec node, whose hash covers the
  // regenerated Menu's members and arcs: nothing re-weaves.
  nav::RebuildReport noop = engine->retitle_node(member, "Renamed Piece");
  EXPECT_EQ(noop.pages_rewoven, 0u);
  EXPECT_EQ(noop.linkbases_reauthored, 0u);

  // add_node appends to the last sub and its arcs appear.
  std::string newcomer;
  for (const auto* node : engine->navigation().nodes_of("PaintingNode")) {
    if (std::none_of(wing_members.begin(), wing_members.end(),
                     [&](const auto& m) { return m.node_id == node->id(); })) {
      newcomer = node->id();
      break;
    }
  }
  ASSERT_FALSE(newcomer.empty());
  (void)engine->add_node(newcomer);
  bool reachable = false;
  for (const auto& arc : engine->authored_arcs()) {
    if (arc.to == newcomer) reachable = true;
  }
  EXPECT_TRUE(reachable);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // Members unknown to every sub, and duplicates, are still rejected.
  EXPECT_THROW((void)engine->retitle_node("floors", "X"),
               navsep::ResolutionError);
  EXPECT_THROW((void)engine->add_node(member), navsep::SemanticError);

  // Menu-kind regeneration now works too: it refreshes from the subs.
  (void)engine->set_access_structure(hm::AccessStructureKind::Menu);
  EXPECT_EQ(engine->structure().kind(), hm::AccessStructureKind::Menu);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // replace_arc still works on the materialized Menu.
  std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  ASSERT_FALSE(arcs.empty());
  arcs[0].title = "Ground floor";
  (void)engine->replace_arc(0, arcs[0]);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(IncrementalEngine, OpaqueMenusStillRejectKindRegeneration) {
  // Regression for the pre-sub-capture guard: a Menu the engine cannot
  // see into (here: a Menu nested inside a Menu) has no captured subs,
  // so kind-based regeneration still throws WITHOUT moving any state.
  auto engine = synthetic_engine(4, hm::AccessStructureKind::Index);
  std::vector<std::unique_ptr<hm::AccessStructure>> inner;
  inner.push_back(hm::make_access_structure(hm::AccessStructureKind::Index,
                                            "wing-a",
                                            engine->structure().members()));
  std::vector<std::unique_ptr<hm::AccessStructure>> subs;
  subs.push_back(std::make_unique<hm::Menu>("east", std::move(inner)));
  (void)engine->set_access_structure(
      std::make_unique<hm::Menu>("floors", std::move(subs)));
  EXPECT_EQ(engine->structure().kind(), hm::AccessStructureKind::Menu);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  const std::string menu_member = engine->structure().members()[0].node_id;
  EXPECT_THROW((void)engine->retitle_node(menu_member, "Wing A"),
               navsep::SemanticError);
  EXPECT_THROW(
      (void)engine->set_access_structure(hm::AccessStructureKind::Menu),
      navsep::SemanticError);

  // replace_arc still works on the materialized Menu.
  std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  ASSERT_FALSE(arcs.empty());
  arcs[0].title = "Ground floor";
  (void)engine->replace_arc(0, arcs[0]);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

// --- provenance ----------------------------------------------------------------

TEST(IncrementalEngine, AnchorProvenanceNamesTheAuthoredArc) {
  auto engine = paper_engine(hm::AccessStructureKind::IndexedGuidedTour);
  const auto* anchors = engine->provenance_for("guitar");
  ASSERT_NE(anchors, nullptr);
  ASSERT_FALSE(anchors->empty());
  for (const auto& anchor : *anchors) {
    EXPECT_EQ(anchor.page_id, "guitar");
    EXPECT_EQ(anchor.source, "links.xml");  // stored pages weave no
                                            // contextual arcs
    EXPECT_EQ(anchor.context, "");
  }
  // The anchors woven into guitar.html are exactly the context-free arcs
  // leaving it in the authored linkbase.
  std::size_t arcs_from_guitar = 0;
  for (const auto& arc : engine->authored_arcs()) {
    if (arc.from == "guitar") ++arcs_from_guitar;
  }
  EXPECT_EQ(anchors->size(), arcs_from_guitar);

  // Unknown pages have no provenance.
  EXPECT_EQ(engine->provenance_for("nope"), nullptr);
}

TEST(IncrementalEngine, ProvenanceFollowsAnArcEdit) {
  auto engine = paper_engine(hm::AccessStructureKind::Index);
  const std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  auto it = std::find_if(arcs.begin(), arcs.end(), [](const hm::AccessArc& a) {
    return a.role == hm::roles::kUp && a.from == "guitar";
  });
  ASSERT_NE(it, arcs.end());
  hm::AccessArc edited = *it;
  edited.to = "guernica";  // retarget guitar's up-link
  (void)engine->replace_arc(static_cast<std::size_t>(it - arcs.begin()),
                            edited);
  const auto* anchors = engine->provenance_for("guitar");
  ASSERT_NE(anchors, nullptr);
  const bool retargeted =
      std::any_of(anchors->begin(), anchors->end(), [](const auto& a) {
        return a.role == hm::roles::kUp && a.to == "guernica";
      });
  EXPECT_TRUE(retargeted);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

// --- stale-cache regression (navigate → mutate → re-navigate) -------------------

TEST(IncrementalEngine, MutationInvalidatesResponseAndArcCachesTogether) {
  auto engine = paper_engine(hm::AccessStructureKind::IndexedGuidedTour);
  nav::Navigating& browser = engine->navigator();

  ASSERT_TRUE(browser.navigate("guitar.html"));
  ASSERT_NE(browser.page(), nullptr);
  EXPECT_NE(browser.page()->find("Next: Guernica"), std::string::npos);
  const std::vector<const navsep::xlink::Arc*> links_before = browser.links();
  ASSERT_FALSE(links_before.empty());

  // Mutate the live site: the linkbase is re-authored, guitar.html is
  // re-woven, the new epoch retires the server's cached entry, and the
  // browser's cached arc list is refreshed (the old Arc pointers died
  // with the arc table).
  (void)engine->retitle_node("guernica", "La Guernica");

  ASSERT_TRUE(browser.navigate("guitar.html"));
  EXPECT_NE(browser.page()->find("Next: La Guernica"), std::string::npos)
      << "stale page served after mutation";
  ASSERT_FALSE(browser.links().empty());
  EXPECT_TRUE(browser.follow_role("next"));
  EXPECT_NE(browser.location().find("guernica.html"), std::string::npos);
}

TEST(IncrementalEngine, RebuildAlsoInvalidatesBothCaches) {
  // The force-everything path must uphold the same contract as the
  // incremental one: no stale responses, no dangling arc pointers.
  auto engine = paper_engine(hm::AccessStructureKind::IndexedGuidedTour);
  nav::Navigating& browser = engine->navigator();
  ASSERT_TRUE(browser.navigate("guitar.html"));
  engine->rebuild();
  ASSERT_FALSE(browser.links().empty());
  EXPECT_TRUE(browser.follow_role("next"));
  EXPECT_TRUE(browser.back());
  // Whatever got cached was cached *after* the rebuild — the page served
  // on back() is the freshly woven one.
  ASSERT_NE(browser.page(), nullptr);
  EXPECT_NE(browser.page()->find("Next: Guernica"), std::string::npos);
}

// --- the acceptance property: randomized edit sequences -------------------------

TEST(IncrementalEngine, RandomizedEditSequenceStaysByteIdentical) {
  auto engine = nav::SitePipeline()
                    .conceptual(SyntheticSpec{.painters = 3,
                                              .paintings_per_painter = 6,
                                              .movements = 3,
                                              .seed = 11})
                    .access(hm::AccessStructureKind::Index, "painter-0")
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();

  std::vector<std::string> all_paintings;
  for (const auto* node : engine->navigation().nodes_of("PaintingNode")) {
    all_paintings.push_back(node->id());
  }
  const hm::AccessStructureKind kinds[] = {
      hm::AccessStructureKind::Index, hm::AccessStructureKind::GuidedTour,
      hm::AccessStructureKind::IndexedGuidedTour};

  navsep::Rng rng(2026);
  for (int step = 0; step < 40; ++step) {
    const std::uint64_t op = rng.below(4);
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
          members[static_cast<std::size_t>(rng.below(members.size()))].node_id;
      (void)engine->retitle_node(id, "title-" + rng.word(5));
    } else if (op == 2) {
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
      (void)engine->set_access_structure(
          kinds[static_cast<std::size_t>(rng.below(3))]);
    }

    ASSERT_NO_FATAL_FAILURE(
        expect_sites_identical(engine->site(), full_build_oracle(*engine)))
        << "diverged after step " << step;
  }

  // And the incremental state must be a fixpoint of the force path: the
  // same bytes, and the same provenance on every page, field by field —
  // an edit that shifts arcs elsewhere in a linkbase re-weaves only the
  // pages whose slice changed, so the ordinals the others recorded must
  // still name the same authored arcs.
  std::vector<std::string> pages;
  for (const auto& m : engine->structure().members()) {
    pages.push_back(m.node_id);
  }
  pages.push_back(engine->structure().page_id());
  std::map<std::string, std::vector<navsep::core::AnchorProvenance>>
      provenance_before;
  for (const std::string& page : pages) {
    const auto* anchors = engine->provenance_for(page);
    ASSERT_NE(anchors, nullptr) << page;
    provenance_before[page] = *anchors;
  }
  std::vector<std::pair<std::string, std::string>> before =
      engine->site().artifacts();
  engine->rebuild();
  EXPECT_EQ(engine->site().artifacts(), before);
  for (const std::string& page : pages) {
    SCOPED_TRACE("page " + page);
    const auto* after = engine->provenance_for(page);
    ASSERT_NE(after, nullptr);
    const std::vector<navsep::core::AnchorProvenance>& expected =
        provenance_before[page];
    ASSERT_EQ(after->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE("anchor " + std::to_string(i));
      EXPECT_EQ((*after)[i].page_id, expected[i].page_id);
      EXPECT_EQ((*after)[i].context, expected[i].context);
      EXPECT_EQ((*after)[i].source, expected[i].source);
      EXPECT_EQ((*after)[i].ordinal, expected[i].ordinal);
      EXPECT_EQ((*after)[i].to, expected[i].to);
      EXPECT_EQ((*after)[i].role, expected[i].role);
    }
  }
}

// --- build-graph introspection --------------------------------------------------

TEST(IncrementalEngine, GraphShapeMatchesTheSite) {
  auto engine = paper_engine(hm::AccessStructureKind::IndexedGuidedTour);
  const nav::BuildGraph& g = engine->build_graph();
  EXPECT_EQ(g.count(nav::ProductKind::Linkbase), 2u);   // links + ByAuthor
  EXPECT_EQ(g.count(nav::ProductKind::ArcTable), 1u);
  EXPECT_EQ(g.count(nav::ProductKind::Source), 1u);
  EXPECT_FALSE(g.is_dirty("nav:spec"));
  EXPECT_TRUE(g.contains("linkbase:links-byauthor.xml"));
}

// --- faults (BuildGraph mechanism) -------------------------------------------

TEST(BuildGraphMechanism, SerialExceptionLeavesTheThrowingNodeDirty) {
  // The fault contract: the node whose rebuild throws keeps its previous
  // hash and stays dirty, and so does every node the run had not reached
  // — its dependents (a chain) and independent nodes later in plan order
  // alike. A retry while the fault persists builds nothing; once it
  // clears, the next run builds exactly what was left, in plan order.
  struct Input {
    const char* name;
    std::vector<std::string> ids;  // plan order; the middle one throws
    std::vector<nav::ProductKind> kinds;
    bool chained;  // each node depends on the one before it
  };
  const std::vector<Input> inputs{
      {"chain",
       {"src", "mid", "page"},
       {nav::ProductKind::Source, nav::ProductKind::Linkbase,
        nav::ProductKind::ArcTable},
       true},
      {"independent",
       {"a", "b", "c"},
       {nav::ProductKind::Source, nav::ProductKind::Source,
        nav::ProductKind::Source},
       false},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    nav::BuildGraph g;
    bool armed = true;
    std::vector<std::string> built;
    for (std::size_t i = 0; i < input.ids.size(); ++i) {
      std::vector<std::string> deps;
      if (input.chained && i > 0) deps.push_back(input.ids[i - 1]);
      const std::string id = input.ids[i];
      const bool throws = i == 1;
      g.define(id, input.kinds[i], std::move(deps),
               [id, throws, &armed, &built] {
                 if (throws && armed) {
                   throw navsep::SemanticError("rebuild failed");
                 }
                 built.push_back(id);
                 return navsep::hash_bytes(id);
               });
    }
    const std::string& first = input.ids[0];
    const std::string& thrower = input.ids[1];
    const std::string& last = input.ids[2];

    EXPECT_THROW((void)g.run(), navsep::SemanticError);
    EXPECT_EQ(built, (std::vector<std::string>{first}));
    EXPECT_FALSE(g.is_dirty(first));
    EXPECT_TRUE(g.is_dirty(thrower));  // its product was never rebuilt
    EXPECT_EQ(g.hash_of(thrower), 0u);
    EXPECT_TRUE(g.is_dirty(last));  // never reached

    // Still armed: the retry fails on the same node and builds nothing.
    built.clear();
    EXPECT_THROW((void)g.run(), navsep::SemanticError);
    EXPECT_TRUE(built.empty());
    EXPECT_TRUE(g.is_dirty(thrower));
    EXPECT_TRUE(g.is_dirty(last));

    // Disarmed: the retry rebuilds only what the failed runs left
    // unbuilt.
    armed = false;
    built.clear();
    nav::RebuildReport r = g.run();
    EXPECT_EQ(built, (std::vector<std::string>{thrower, last}));
    EXPECT_EQ(r.nodes_rebuilt, 2u);
    EXPECT_FALSE(g.is_dirty(thrower));
    EXPECT_EQ(g.hash_of(thrower), navsep::hash_bytes(thrower));
  }
}

// --- mutation batching -----------------------------------------------------------

TEST(IncrementalEngine, BatchCoalescesEditsIntoOneEpoch) {
  auto engine = synthetic_engine(6, hm::AccessStructureKind::Index);
  const std::uint64_t epoch_before = engine->snapshots().epoch();
  const std::uint64_t publishes_before = engine->snapshots().publishes();

  engine->begin_batch();
  EXPECT_TRUE(engine->batch_open());
  // Retitle first: structural mutations regenerate the arc set (and
  // discard arc-level overlays), exactly as they do unbatched.
  nav::RebuildReport mid = engine->retitle_node(
      engine->structure().members()[0].node_id, "batched-c");
  EXPECT_EQ(mid.nodes_rebuilt, 0u);  // deferred: nothing ran yet
  EXPECT_EQ(mid.epochs_published, 0u);
  std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  ASSERT_GE(arcs.size(), 2u);
  arcs[0].title = "batched-a";
  (void)engine->replace_arc(0, arcs[0]);
  arcs[1].title = "batched-b";
  (void)engine->replace_arc(1, arcs[1]);
  // Batched state moves eagerly: later reads see the edits pre-commit...
  EXPECT_EQ(engine->authored_arcs()[0].title, "batched-a");
  // ...but nothing published.
  EXPECT_EQ(engine->snapshots().epoch(), epoch_before);

  nav::RebuildReport r = engine->commit_batch();
  EXPECT_FALSE(engine->batch_open());
  EXPECT_EQ(r.edits_coalesced, 3u);
  EXPECT_EQ(r.epochs_published, 1u);
  EXPECT_GT(r.nodes_rebuilt, 0u);
  EXPECT_EQ(engine->snapshots().epoch(), epoch_before + 1);
  EXPECT_EQ(engine->snapshots().publishes(), publishes_before + 1);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(IncrementalEngine, BatchLifecycleErrorsAndEmptyBatches) {
  auto engine = synthetic_engine(4, hm::AccessStructureKind::Index);
  EXPECT_THROW(engine->commit_batch(), navsep::SemanticError);
  engine->begin_batch();
  EXPECT_THROW(engine->begin_batch(), navsep::SemanticError);

  // An empty batch publishes nothing at all.
  const std::uint64_t publishes_before = engine->snapshots().publishes();
  nav::RebuildReport r = engine->commit_batch();
  EXPECT_EQ(r.edits_coalesced, 0u);
  EXPECT_EQ(r.epochs_published, 0u);
  EXPECT_EQ(engine->snapshots().publishes(), publishes_before);

  // A failed mutation inside a batch does not wedge the batch.
  engine->begin_batch();
  EXPECT_THROW((void)engine->add_node("no-such-node"),
               navsep::ResolutionError);
  std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  arcs[0].title = "survivor";
  (void)engine->replace_arc(0, arcs[0]);
  nav::RebuildReport after = engine->commit_batch();
  EXPECT_EQ(after.edits_coalesced, 1u);
  EXPECT_EQ(after.epochs_published, 1u);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(IncrementalEngine, BatchedAndSequentialEnginesStayByteIdentical) {
  // The batching oracle: the same randomized mixed edit stream applied
  // sequentially to one engine and in randomized batch sizes to another
  // must leave both sites byte-identical at every commit point.
  auto make = [] {
    return nav::SitePipeline()
        .conceptual(SyntheticSpec{.painters = 3,
                                  .paintings_per_painter = 5,
                                  .movements = 3,
                                  .seed = 17})
        .access(hm::AccessStructureKind::Index, "painter-1")
        .contexts({"ByAuthor"})
        .weave()
        .serve();
  };
  auto sequential = make();
  auto batched = make();

  std::vector<std::string> all_paintings;
  for (const auto* node : batched->navigation().nodes_of("PaintingNode")) {
    all_paintings.push_back(node->id());
  }
  const hm::AccessStructureKind kinds[] = {
      hm::AccessStructureKind::Index, hm::AccessStructureKind::GuidedTour,
      hm::AccessStructureKind::IndexedGuidedTour};

  navsep::Rng rng(404);
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t epoch_before = batched->snapshots().epoch();
    const std::size_t batch_size = 1 + static_cast<std::size_t>(rng.below(5));
    batched->begin_batch();
    std::size_t applied = 0;
    for (std::size_t k = 0; k < batch_size; ++k) {
      const std::uint64_t op = rng.below(4);
      // Decide the edit from the batched engine's (eagerly moved) state,
      // then apply the identical edit to both engines.
      if (op == 0) {
        std::vector<hm::AccessArc> arcs = batched->authored_arcs();
        if (arcs.empty()) continue;
        const std::size_t index =
            static_cast<std::size_t>(rng.below(arcs.size()));
        hm::AccessArc edited = arcs[index];
        edited.title = "edit-" + rng.word(6);
        (void)batched->replace_arc(index, edited);
        (void)sequential->replace_arc(index, edited);
      } else if (op == 1) {
        const auto& members = batched->structure().members();
        const std::string id =
            members[static_cast<std::size_t>(rng.below(members.size()))]
                .node_id;
        const std::string title = "title-" + rng.word(5);
        (void)batched->retitle_node(id, title);
        (void)sequential->retitle_node(id, title);
      } else if (op == 2) {
        std::set<std::string> current;
        for (const auto& m : batched->structure().members()) {
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
        (void)batched->add_node(candidate);
        (void)sequential->add_node(candidate);
      } else {
        const auto kind = kinds[static_cast<std::size_t>(rng.below(3))];
        (void)batched->set_access_structure(kind);
        (void)sequential->set_access_structure(kind);
      }
      ++applied;
    }
    nav::RebuildReport r = batched->commit_batch();
    EXPECT_EQ(r.edits_coalesced, applied);
    if (applied > 0) {
      EXPECT_EQ(batched->snapshots().epoch(), epoch_before + 1)
          << "a " << applied << "-edit batch must publish exactly one epoch";
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_sites_identical(batched->site(), sequential->site()))
        << "diverged in round " << round;
    ASSERT_NO_FATAL_FAILURE(
        expect_sites_identical(batched->site(), full_build_oracle(*batched)))
        << "left the oracle in round " << round;
  }
}

}  // namespace
