// Tests for the navsep::nav façade: the SitePipeline builder, the
// role-segregated interfaces (Navigating / SessionView), the Engine's
// framework members, the Browser adapter equivalence, the per-source arc
// index, and the engine's own server (published epochs only, also across
// a throwing mutation and under concurrent readers).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "nav/pipeline.hpp"
#include "oracle.hpp"
#include "xml/parser.hpp"

namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace serve = navsep::serve;
namespace site = navsep::site;
namespace xlink = navsep::xlink;
using navsep::museum::MuseumWorld;

namespace {

std::unique_ptr<nav::Engine> paper_engine() {
  return nav::SitePipeline()
      .paper_museum()
      .schema()
      .access(hm::AccessStructureKind::IndexedGuidedTour, "picasso")
      .weave()
      .serve();
}

/// paper_engine() with both context families, for profile tests.
std::unique_ptr<nav::Engine> families_engine() {
  return nav::SitePipeline()
      .paper_museum()
      .access(hm::AccessStructureKind::IndexedGuidedTour, "picasso")
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

/// A test-side fault in the middle of a graph run: while armed, the
/// `fail_on`-th page composition (1-based) throws from a foreign
/// aspect's after("compose(*)") advice. Disarmed, it only counts.
struct ComposeFault {
  bool armed = false;
  int fail_on = 0;
  int compositions = 0;
};

std::shared_ptr<navsep::aop::Aspect> compose_fault_aspect(
    ComposeFault& fault) {
  auto aspect = std::make_shared<navsep::aop::Aspect>("compose-fault");
  aspect->after("compose(*)", [&fault](navsep::aop::JoinPointContext&) {
    ++fault.compositions;
    if (fault.armed && fault.compositions == fault.fail_on) {
      throw std::runtime_error("injected compose fault");
    }
  });
  return aspect;
}

}  // namespace

// --- pipeline round-trip -------------------------------------------------------

TEST(SitePipeline, ServesTheSeparatedSiteEndToEnd) {
  auto engine = paper_engine();

  // Authored + derived artifacts all present.
  EXPECT_TRUE(engine->site().contains("links.xml"));
  EXPECT_TRUE(engine->site().contains("presentation.xsl"));
  EXPECT_TRUE(engine->site().contains("museum.css"));
  EXPECT_TRUE(engine->site().contains("data/picasso.xml"));
  EXPECT_TRUE(engine->site().contains("guitar.html"));

  // The arc table matches the authored linkbase (IGT over 3 paintings:
  // 2N index/up + 2(N-1) tour = 10 arcs).
  EXPECT_EQ(engine->arc_table().arcs().size(), 10u);

  // And the served site is walkable through the end-user role.
  nav::Navigating& browser = engine->navigator();
  ASSERT_TRUE(browser.navigate("guitar.html"));
  ASSERT_TRUE(browser.follow_role("next"));
  EXPECT_NE(browser.location().find("guernica.html"), std::string::npos);
  ASSERT_TRUE(browser.follow_role("next"));
  EXPECT_FALSE(browser.follow_role("next"));  // end of tour
  ASSERT_TRUE(browser.follow_role("up"));
  EXPECT_NE(browser.location().find("index-paintings-of-picasso.html"),
            std::string::npos);
  EXPECT_EQ(engine->session().pages_visited(), 4u);
}

TEST(SitePipeline, BuildProducesTheSameArtifactsAsHandWiring) {
  auto world = MuseumWorld::paper_instance();
  hm::NavigationalModel model = world->derive_navigation();
  auto igt = world->paintings_structure(
      hm::AccessStructureKind::IndexedGuidedTour, model, "picasso");
  site::VirtualSite by_hand = site::build_separated_site(*world, *igt);

  site::VirtualSite by_pipeline =
      nav::SitePipeline()
          .conceptual(*world)
          .access(hm::AccessStructureKind::IndexedGuidedTour, "picasso")
          .weave()
          .build();

  ASSERT_EQ(by_pipeline.size(), by_hand.size());
  for (const std::string& path : by_hand.paths()) {
    ASSERT_NE(by_pipeline.get(path), nullptr) << path;
    EXPECT_EQ(*by_pipeline.get(path), *by_hand.get(path)) << path;
  }
}

TEST(SitePipeline, TangledModeBakesNavigationIn) {
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .access(hm::AccessStructureKind::IndexedGuidedTour,
                            "picasso")
                    .tangled()
                    .serve();
  EXPECT_FALSE(engine->site().contains("links.xml"));
  EXPECT_TRUE(engine->site().contains("guitar.html"));
  EXPECT_EQ(engine->mode(), nav::WeaveMode::Tangled);
  // No linkbase -> no arcs for the browser; pages still serve.
  EXPECT_TRUE(engine->arc_table().arcs().empty());
  EXPECT_TRUE(engine->navigator().navigate("guitar.html"));
  EXPECT_TRUE(engine->navigator().links().empty());
}

TEST(SitePipeline, ContextFamiliesAreAuthoredAndOwned) {
  auto engine =
      nav::SitePipeline()
          .conceptual(navsep::museum::SyntheticSpec{.painters = 2,
                                                    .paintings_per_painter = 3,
                                                    .movements = 1,
                                                    .seed = 5})
          .access(hm::AccessStructureKind::IndexedGuidedTour)
          .contexts({"ByAuthor", "ByMovement"})
          .weave()
          .serve();

  ASSERT_EQ(engine->context_families().size(), 2u);
  EXPECT_TRUE(engine->site().contains("links-byauthor.xml"));
  EXPECT_TRUE(engine->site().contains("links-bymovement.xml"));

  // The paper's §2 scenario through an engine session: same node, two
  // routes, different successors.
  site::NavigationSession session = engine->open_session();
  ASSERT_TRUE(session.enter_context("ByAuthor", "painter-0",
                                    "painter-0-work-2"));
  EXPECT_FALSE(session.next());  // last work by this author
  ASSERT_TRUE(session.visit("painter-0-work-2"));
  ASSERT_TRUE(session.through("ByMovement"));
  ASSERT_TRUE(session.next());
  EXPECT_EQ(session.current()->id(), "painter-1-work-0");
}

TEST(SitePipeline, MisconfigurationThrowsAtTheTerminal) {
  EXPECT_THROW(nav::SitePipeline().serve(), navsep::SemanticError);
  EXPECT_THROW(nav::SitePipeline().paper_museum().serve(),
               navsep::SemanticError);
  EXPECT_THROW(nav::SitePipeline()
                   .paper_museum()
                   .access(hm::AccessStructureKind::Index)
                   .contexts({"ByZodiacSign"})
                   .serve(),
               navsep::SemanticError);
  EXPECT_THROW(nav::SitePipeline().schema(), navsep::SemanticError);
}

TEST(SitePipeline, SlashlessBaseStillLinksUp) {
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .access(hm::AccessStructureKind::IndexedGuidedTour,
                            "picasso")
                    .weave()
                    .serve("http://museum.example/site");  // no trailing '/'
  EXPECT_EQ(engine->server().base(), "http://museum.example/site/");
  ASSERT_TRUE(engine->navigator().navigate("guitar.html"));
  EXPECT_FALSE(engine->navigator().links().empty());
  EXPECT_TRUE(engine->navigator().follow_role("next"));
}

TEST(SitePipeline, ReplacingTheConceptualModelInvalidatesTheSchema) {
  nav::SitePipeline pipeline;
  pipeline.paper_museum().schema();
  // Swapping the world must drop the model derived from the old one —
  // the engine's model has to view the new world's entities.
  pipeline.conceptual(navsep::museum::SyntheticSpec{.painters = 1,
                                                    .paintings_per_painter = 2,
                                                    .movements = 1,
                                                    .seed = 1});
  auto engine = pipeline.access(hm::AccessStructureKind::Index).serve();
  EXPECT_EQ(engine->navigation().node("guitar"), nullptr);
  EXPECT_NE(engine->navigation().node("painter-0-work-0"), nullptr);
}

TEST(SitePipeline, TerminalCallsConsumeThePipeline) {
  nav::SitePipeline pipeline;
  pipeline.paper_museum().access(hm::AccessStructureKind::Index, "picasso");
  site::VirtualSite first = pipeline.build();
  EXPECT_TRUE(first.contains("links.xml"));
  // The world moved into the first terminal; a second one must throw,
  // not dereference it.
  EXPECT_THROW(pipeline.serve(), navsep::SemanticError);
  EXPECT_THROW(pipeline.build(), navsep::SemanticError);
}

// Rebuilding through the same weaver (the §5 migration scenario) must
// swap the navigation aspect, not stack a second one.
TEST(SitePipeline, WeaverReuseAcrossBuildsDoesNotStackAspects) {
  auto world = MuseumWorld::paper_instance();
  hm::NavigationalModel model = world->derive_navigation();
  auto index = world->paintings_structure(hm::AccessStructureKind::Index,
                                          model, "picasso");
  auto igt = world->paintings_structure(
      hm::AccessStructureKind::IndexedGuidedTour, model, "picasso");

  navsep::aop::Weaver weaver;
  site::SiteBuildOptions options;
  options.weaver = &weaver;
  site::VirtualSite before = site::build_separated_site(*world, *index,
                                                        options);
  site::VirtualSite after = site::build_separated_site(*world, *igt,
                                                       options);

  EXPECT_EQ(weaver.aspect_names().size(), 1u);
  const std::string& guitar = *after.get("guitar.html");
  // One navigation container, carrying the IGT arcs (not stale Index ones).
  EXPECT_EQ(guitar.find("class=\"navigation\""),
            guitar.rfind("class=\"navigation\""));
  EXPECT_NE(guitar.find("nav-next"), std::string::npos);
}

// replace_aspect must keep the aspect's slot in the execution order, not
// move it behind aspects registered later.
TEST(RoleInterfaces, ReplaceAspectPreservesRegistrationOrder) {
  navsep::aop::Weaver weaver;
  std::vector<std::string> order;
  auto make = [&](const std::string& name) {
    auto aspect = std::make_shared<navsep::aop::Aspect>(name);
    aspect->before("custom(*)", [&order, name](navsep::aop::JoinPointContext&) {
      order.push_back(name);
    });
    return aspect;
  };
  weaver.register_aspect(make("first"));
  weaver.register_aspect(make("second"));
  weaver.replace_aspect(make("first"));  // swap in place

  navsep::aop::JoinPoint jp;
  jp.kind = navsep::aop::JoinPointKind::Custom;
  jp.subject = "x";
  weaver.execute(jp, [] {});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "second");
}

// --- role interfaces -----------------------------------------------------------

// The adapter must behave exactly like driving the Browser directly over
// an identically built site (the old hand wiring).
TEST(RoleInterfaces, BrowserThroughNavigatingEquivalence) {
  auto engine = paper_engine();

  // Hand-wired reference: same world, same structure, same base.
  auto world = MuseumWorld::paper_instance();
  hm::NavigationalModel model = world->derive_navigation();
  auto igt = world->paintings_structure(
      hm::AccessStructureKind::IndexedGuidedTour, model, "picasso");
  site::VirtualSite built = site::build_separated_site(*world, *igt);
  navsep::xml::ParseOptions opts;
  opts.base_uri = "http://museum.example/site/links.xml";
  auto linkbase = navsep::xml::parse(*built.get("links.xml"), opts);
  xlink::TraversalGraph graph = xlink::TraversalGraph::from_linkbase(*linkbase);
  site::HypermediaServer server(built, "http://museum.example/site/");
  site::Browser reference(server, graph);

  nav::Navigating& facade = engine->navigator();
  auto step = [&](auto&& op) {
    bool a = op(facade);
    bool b = op(reference);
    EXPECT_EQ(a, b);
    EXPECT_EQ(facade.location(), reference.location());
    EXPECT_EQ(facade.links().size(), reference.links().size());
  };

  step([](auto& b) { return b.navigate("guitar.html"); });
  step([](auto& b) { return b.follow_role("next"); });
  step([](auto& b) { return b.follow_role("nav:next"); });  // prefixed form
  step([](auto& b) { return b.follow_role("missing-role"); });
  step([](auto& b) { return b.back(); });
  step([](auto& b) { return b.forward(); });
  step([](auto& b) { return b.navigate("ghost.html"); });
  step([](auto& b) { return b.follow_role("up"); });

  // Page bodies match too (same woven artifacts).
  ASSERT_NE(facade.page(), nullptr);
  EXPECT_EQ(*facade.page(), *reference.page());

  // SessionView agrees with the concrete browser's bookkeeping.
  const nav::SessionView& view = engine->session();
  EXPECT_EQ(view.history().size(), reference.history().size());
  EXPECT_EQ(view.pages_visited(), reference.pages_visited());
  const serve::ConcurrentServer::LayerStats served =
      engine->server().unified_stats().base;
  EXPECT_EQ(view.requests(), served.requests);
  EXPECT_EQ(view.misses(), served.not_found);
}

TEST(RoleInterfaces, IndependentBrowsersDoNotShareState) {
  auto engine = paper_engine();
  engine->navigator().navigate("guitar.html");
  site::Browser other = engine->open_browser();
  EXPECT_TRUE(other.location().empty());
  ASSERT_TRUE(other.navigate("guernica.html"));
  EXPECT_NE(engine->navigator().location(),
            other.location());
  EXPECT_EQ(engine->session().history().size(), 1u);
}

TEST(RoleInterfaces, EngineInternalsRebuildRewavesWithNewAspects) {
  auto engine = paper_engine();

  // Warm the response cache with the original page.
  ASSERT_TRUE(engine->navigator().navigate("guitar.html"));
  std::string before = *engine->navigator().page();
  EXPECT_EQ(before.find("woven-extra"), std::string::npos);

  // Framework role: add an aspect, re-weave, serve fresh bytes.
  auto extra = std::make_shared<navsep::aop::Aspect>("extra", 1);
  extra->after("compose(*)", [](navsep::aop::JoinPointContext& ctx) {
    auto* body = ctx.payload_as<navsep::xml::Element*>();
    if (body == nullptr || *body == nullptr) return;
    (*body)->append_element("div").set_attribute("class", "woven-extra");
  });
  engine->weaver().register_aspect(extra);
  engine->rebuild();

  ASSERT_TRUE(engine->navigator().navigate("guitar.html"));
  EXPECT_NE(engine->navigator().page()->find("woven-extra"),
            std::string::npos);

  // compose_page goes through the same weaver.
  EXPECT_NE(engine->compose_page("guitar").find("woven-extra"),
            std::string::npos);
  EXPECT_THROW(engine->compose_page("nonexistent-node"),
               navsep::ResolutionError);
}

// --- per-source arc index ------------------------------------------------------

// outgoing() must agree, in content AND order, with a linear scan of the
// arc list in linkbase document order — the contract the per-source index
// has to preserve.
TEST(ArcIndex, OutgoingMatchesLinkbaseOrder) {
  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 3,
                        .paintings_per_painter = 4,
                        .movements = 2,
                        .seed = 99})
                    .access(hm::AccessStructureKind::IndexedGuidedTour)
                    .contexts({"ByAuthor"})
                    .weave()
                    .serve();
  const xlink::TraversalGraph& graph = engine->arc_table();
  ASSERT_GT(graph.arcs().size(), 0u);

  for (const std::string& uri : graph.resource_uris()) {
    std::vector<const xlink::Arc*> scanned;
    for (const xlink::Arc& arc : graph.arcs()) {
      if (!arc.from.uri.empty() &&
          xlink::normalize_ref(arc.from.uri) == uri) {
        scanned.push_back(&arc);
      }
    }
    EXPECT_EQ(graph.outgoing(uri), scanned) << uri;
  }
}

TEST(ArcIndex, RoleFilteredLookupAndIndexAccessor) {
  auto engine = paper_engine();
  const xlink::TraversalGraph& graph = engine->arc_table();
  std::string guitar =
      xlink::normalize_ref("http://museum.example/site/guitar.html");

  auto next_arcs = graph.outgoing_with_role(guitar, "nav:next");
  ASSERT_EQ(next_arcs.size(), 1u);
  EXPECT_NE(next_arcs[0]->to.uri.find("guernica.html"), std::string::npos);

  const std::vector<std::size_t>* indices = graph.outgoing_indices(guitar);
  ASSERT_NE(indices, nullptr);
  EXPECT_EQ(indices->size(), graph.outgoing(guitar).size());
  for (std::size_t i = 1; i < indices->size(); ++i) {
    EXPECT_LT((*indices)[i - 1], (*indices)[i]);  // document order
  }
  EXPECT_EQ(graph.outgoing_indices("http://nowhere.example/"), nullptr);
}

// --- the engine's server -----------------------------------------------------

TEST(ServerCache, RepeatsAreServedFromTheCache) {
  auto engine = paper_engine();
  const serve::ConcurrentServer& server = engine->server();
  auto base = [&] { return server.unified_stats().base; };

  site::Response first = server.get("guitar.html");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(base().hits, 0u);

  site::Response second = server.get("guitar.html");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(base().hits, 1u);
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(second.content_type, first.content_type);

  // 404s are never cached: each miss is resolved and counted anew, and
  // probing strings cannot grow the cache.
  EXPECT_FALSE(server.get("ghost.html").ok());
  EXPECT_FALSE(server.get("ghost.html").ok());
  EXPECT_EQ(base().not_found, 2u);
  EXPECT_EQ(base().requests, 4u);
  EXPECT_EQ(base().entries, 1u);

  // Fragments stay out of the cache key.
  EXPECT_TRUE(server.get("guitar.html#anchor").ok());
  EXPECT_EQ(base().hits, 2u);
  EXPECT_EQ(base().entries, 1u);
}

TEST(ServerCache, CountersSurviveConcurrentReaders) {
  auto engine = paper_engine();
  const serve::ConcurrentServer& server = engine->server();
  constexpr int kThreads = 4;
  constexpr int kGetsPerThread = 250;

  std::atomic<int> oks{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &oks, t] {
      for (int i = 0; i < kGetsPerThread; ++i) {
        const char* path = (i + t) % 2 == 0 ? "guitar.html" : "ghost.html";
        if (server.get(path).ok()) {
          oks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const serve::ConcurrentServer::LayerStats base =
      server.unified_stats().base;
  EXPECT_EQ(base.requests, static_cast<std::size_t>(kThreads) *
                               kGetsPerThread);
  EXPECT_EQ(base.not_found, static_cast<std::size_t>(kThreads) *
                                kGetsPerThread / 2);
  EXPECT_EQ(oks.load(), kThreads * kGetsPerThread / 2);
}

// The engine's own session after a mutation that throws mid-run: the
// arc table was rebuilt before the second page weave threw, so links()
// must be re-resolved against the live table (reading a stale arc is a
// heap-use-after-free under ASan), and page() must still be the last
// published epoch's bytes.
TEST(EngineServing, SessionStaysValidAfterAThrowingMutation) {
  auto engine = paper_engine();
  nav::Navigating& navigator = engine->navigator();
  ASSERT_TRUE(navigator.navigate("guernica.html"));
  ASSERT_FALSE(navigator.links().empty());
  ComposeFault fault{.armed = true, .fail_on = 2};
  engine->weaver().register_aspect(compose_fault_aspect(fault));
  const std::uint64_t epoch = engine->snapshots().epoch();

  EXPECT_THROW((void)engine->retitle_node("guernica", "Guernica (mk2)"),
               std::runtime_error);
  EXPECT_EQ(fault.compositions, 2);
  EXPECT_EQ(engine->snapshots().epoch(), epoch);

  EXPECT_EQ(navigator.links(),
            engine->arc_table().outgoing(navigator.location()));
  std::size_t next_arcs = 0;
  for (const xlink::Arc* arc : navigator.links()) {
    EXPECT_FALSE(arc->to.uri.empty());
    if (xlink::arcrole_matches(arc->arcrole, "next")) ++next_arcs;
  }
  EXPECT_EQ(next_arcs, 1u);
  ASSERT_NE(navigator.page(), nullptr);
  EXPECT_EQ(*navigator.page(),
            *engine->snapshots().current()->respond(navigator.location()).body);
}

// The engine serves only published epochs: whichever page weave of an
// edit throws, server() and the session keep serving the last epoch
// byte for byte — nothing of the half-run edit leaks — and retrying the
// same edit converges everything back to the full-build oracle (the
// page whose weave threw included).
TEST(EngineServing, ServesOnlyPublishedEpochsAndConvergesAfterAFault) {
  // Count the page compositions the edit performs on a twin engine.
  int compositions = 0;
  {
    auto twin = paper_engine();
    ComposeFault counter;
    twin->weaver().register_aspect(compose_fault_aspect(counter));
    (void)twin->retitle_node("guernica", "Guernica (mk2)");
    compositions = counter.compositions;
  }
  ASSERT_GE(compositions, 2);

  for (int k = 1; k <= compositions; ++k) {
    SCOPED_TRACE("fault on page composition " + std::to_string(k));
    auto engine = paper_engine();
    ASSERT_TRUE(engine->navigator().navigate("guitar.html"));
    const serve::ConcurrentServer& server = engine->server();
    const serve::SnapshotStore& snapshots = engine->snapshots();
    // Warm the server's cache on every artifact before the fault.
    for (const std::string& path : engine->site().paths()) {
      ASSERT_TRUE(server.get(path).ok()) << path;
    }
    ComposeFault fault{.armed = true, .fail_on = k};
    engine->weaver().register_aspect(compose_fault_aspect(fault));
    const std::uint64_t epoch = snapshots.epoch();

    EXPECT_THROW((void)engine->retitle_node("guernica", "Guernica (mk2)"),
                 std::runtime_error);
    EXPECT_EQ(snapshots.epoch(), epoch);
    std::shared_ptr<const serve::SiteSnapshot> snap = snapshots.current();
    for (const auto& [path, body] : snap->files()) {
      site::Response served = server.get(path);
      ASSERT_TRUE(served.ok()) << path;
      EXPECT_EQ(*served.body, *body) << path;
    }
    ASSERT_NE(engine->navigator().page(), nullptr);
    EXPECT_EQ(*engine->navigator().page(),
              *snap->respond(engine->navigator().location()).body);

    // Disarm and retry the same edit: the site and every byte server()
    // serves equal a from-scratch build of the current design. The
    // retry re-weaves only what the failed run left unbuilt (the page
    // whose weave threw and those after it), never the whole site.
    fault.armed = false;
    const nav::RebuildReport retry =
        engine->retitle_node("guernica", "Guernica (mk2)");
    EXPECT_LT(retry.pages_rewoven, retry.pages_total);
    EXPECT_EQ(snapshots.epoch(), epoch + 1);
    const site::VirtualSite oracle =
        navsep::testing::full_build_oracle(*engine);
    navsep::testing::expect_sites_identical(engine->site(), oracle);
    ASSERT_EQ(snapshots.current()->files().size(), oracle.size());
    for (const std::string& path : oracle.paths()) {
      site::Response served = server.get(path);
      ASSERT_TRUE(served.ok()) << path;
      EXPECT_EQ(*served.body, *oracle.get(path)) << path;
    }
    EXPECT_EQ(*engine->navigator().page(),
              *oracle.get(engine->navigator().location().substr(
                  server.base().size())));
  }
}

// Profile registrations only select among authored linkbases: each one
// publishes exactly one epoch and re-weaves nothing, and a batch of them
// publishes once.
TEST(EngineServing, ProfileRegistrationsPublishOneEpochAndReweaveNothing) {
  auto engine = families_engine();
  const serve::SnapshotStore& snapshots = engine->snapshots();
  const auto artifacts = engine->site().artifacts();
  const std::uint64_t publishes = snapshots.publishes();

  engine->register_profile({"tour", {"ByAuthor"}});
  EXPECT_EQ(snapshots.publishes(), publishes + 1);
  EXPECT_EQ(engine->site().artifacts(), artifacts);
  EXPECT_EQ(snapshots.current()->profiles(), engine->profiles());

  engine->begin_batch();
  engine->register_profile({"kiosk", {}});
  engine->register_profile({"curator", {"ByMovement"}});
  engine->register_profile({"tour", {"ByAuthor", "ByMovement"}});
  EXPECT_EQ(snapshots.publishes(), publishes + 1);  // nothing until commit
  const nav::RebuildReport burst = engine->commit_batch();
  EXPECT_EQ(burst.edits_coalesced, 3u);
  EXPECT_EQ(burst.epochs_published, 1u);
  EXPECT_EQ(burst.pages_rewoven, 0u);
  EXPECT_EQ(burst.nodes_rebuilt, 0u);
  EXPECT_EQ(snapshots.publishes(), publishes + 2);
  EXPECT_EQ(engine->site().artifacts(), artifacts);
  EXPECT_EQ(snapshots.current()->profiles(), engine->profiles());

  // An empty batch publishes nothing.
  engine->begin_batch();
  const nav::RebuildReport empty = engine->commit_batch();
  EXPECT_EQ(empty.edits_coalesced, 0u);
  EXPECT_EQ(empty.epochs_published, 0u);
  EXPECT_EQ(snapshots.publishes(), publishes + 2);
}

// server() is reader-safe: readers GET every artifact through it, base
// and as a profile, while the writer keeps editing (retitles, profile
// re-registrations with another family list, batched bursts), and every
// body read is that (profile, path)'s bytes in some epoch the writer
// published (this suite runs in the TSan job).
TEST(EngineServing, ServerIsSafeUnderConcurrentReaders) {
  auto engine = families_engine();
  engine->register_profile({"tour", {"ByAuthor"}});
  const serve::ConcurrentServer& server = engine->server();
  const serve::SnapshotStore& snapshots = engine->snapshots();
  constexpr int kReaders = 4;
  constexpr int kEdits = 24;
  // The family lists the writer re-registers "tour" with, in turn.
  const std::vector<std::vector<std::string>> lists = {
      {"ByMovement"}, {"ByAuthor", "ByMovement"}, {"ByAuthor"}};

  // (profile, path) -> every body some published epoch served there
  // (writer-side); profile "" is the base layer.
  using Key = std::pair<std::string, std::string>;
  std::map<Key, std::set<std::string>> published;
  // Every writer call below publishes exactly one epoch: the next one.
  std::uint64_t next_epoch = snapshots.epoch();
  auto record_epoch = [&] {
    const std::shared_ptr<const serve::SiteSnapshot> snap = snapshots.current();
    EXPECT_EQ(snap->epoch(), next_epoch++);
    for (const auto& [path, body] : snap->files()) {
      published[{"", path}].insert(*body);
      site::Response overlay = snap->respond_as("tour", path);
      if (overlay.ok()) published[{"tour", path}].insert(*overlay.body);
    }
  };
  record_epoch();
  std::vector<std::string> paths;
  for (const auto& entry : published) {
    if (entry.first.first.empty()) paths.push_back(entry.first.second);
  }

  std::atomic<bool> writing{true};
  // Per reader: every distinct body it was served, held so no pointer
  // is reused while the test runs.
  std::vector<std::vector<std::pair<Key, std::shared_ptr<const std::string>>>>
      seen(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::set<const std::string*> distinct;
      do {
        for (const std::string& path : paths) {
          for (const std::string profile : {"", "tour"}) {
            site::Response r = profile.empty() ? server.get(path)
                                               : server.get(path, profile);
            if (r.ok() && distinct.insert(r.body.get()).second) {
              seen[t].emplace_back(Key{profile, path}, r.body);
            }
          }
        }
      } while (writing.load(std::memory_order_acquire));
    });
  }
  const std::vector<hm::Member> members = engine->structure().members();
  auto retitle = [&](int i) {
    const hm::Member& member = members[i % members.size()];
    (void)engine->retitle_node(member.node_id,
                               member.title + " v" + std::to_string(i));
  };
  for (int i = 0; i < kEdits; ++i) {
    retitle(i);
    record_epoch();
    if (i % 4 == 1) {
      engine->register_profile({"tour", lists[(i / 4) % lists.size()]});
      record_epoch();
    }
    if (i % 4 == 3) {
      engine->begin_batch();
      retitle(kEdits + i);
      engine->register_profile({"tour", lists[(i / 4 + 1) % lists.size()]});
      retitle(kEdits + i + 1);
      const nav::RebuildReport burst = engine->commit_batch();
      EXPECT_EQ(burst.edits_coalesced, 3u);
      EXPECT_EQ(burst.epochs_published, 1u);
      record_epoch();
    }
  }
  writing.store(false, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(snapshots.epoch() + 1, next_epoch);
  std::size_t bodies = 0;
  for (const auto& per_reader : seen) {
    for (const auto& [key, body] : per_reader) {
      ++bodies;
      EXPECT_EQ(published[key].count(*body), 1u)
          << key.first << " " << key.second;
    }
  }
  EXPECT_GE(bodies, paths.size());
}
