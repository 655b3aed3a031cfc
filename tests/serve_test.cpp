// The concurrent serving runtime: shared-ownership response bodies,
// epoch-published snapshots, the sharded ConcurrentServer, and the
// multi-session workload driver.
//
// The stress tests here are the ThreadSanitizer targets of CI's tsan
// job: readers hammer GETs while a writer mutates the linkbase
// mid-traffic, and every served body must be byte-identical to a site
// the single-threaded rebuild() oracle could have produced — no torn
// pages, no mixed epochs, no dangling bytes.
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/navigation_aspect.hpp"
#include "nav/pipeline.hpp"
#include "obs/registry.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"
#include "site/browser.hpp"
#include "site/server.hpp"
#include "site/virtual_site.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace serve = navsep::serve;
namespace site = navsep::site;

std::unique_ptr<nav::Engine> paper_engine() {
  return nav::SitePipeline()
      .paper_museum()
      .access(AccessStructureKind::IndexedGuidedTour, "picasso")
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

std::unique_ptr<nav::Engine> synthetic_engine(std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 2,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 2,
                                                .seed = 7})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

/// path → bytes of the engine's current site (the oracle unit).
std::map<std::string, std::string> site_bytes(const nav::Engine& engine) {
  std::map<std::string, std::string> out;
  for (auto& [path, content] : engine.site().artifacts()) {
    out.emplace(path, content);
  }
  return out;
}

// --- satellite: shared-ownership response bodies ------------------------------

TEST(SharedBody, ResponseOutlivesRemoval) {
  site::VirtualSite vsite;
  vsite.put("a.html", "alpha bytes");
  site::HypermediaServer server(vsite, "http://host/site/");

  site::Response held = server.get("a.html");
  ASSERT_TRUE(held.ok());
  vsite.remove("a.html");

  // The dangling-response hazard this design removes: the site entry is
  // gone, yet the held response still owns its bytes.
  EXPECT_EQ(*held.body, "alpha bytes");
  EXPECT_FALSE(server.get("a.html").ok());
}

TEST(SharedBody, ResponseKeepsOldBytesAcrossReplacement) {
  site::VirtualSite vsite;
  vsite.put("a.html", "version one");
  site::HypermediaServer server(vsite, "http://host/site/");

  site::Response old = server.get("a.html");
  vsite.put("a.html", "version two");

  EXPECT_EQ(*old.body, "version one");
  EXPECT_EQ(*server.get("a.html").body, "version two");
}

TEST(SharedBody, EngineMutationCannotFreeHeldResponse) {
  auto engine = paper_engine();
  const std::string entry =
      navsep::core::default_href_for(engine->structure().entry());
  site::Response held = engine->server().get(entry);
  ASSERT_TRUE(held.ok());
  const std::string before = *held.body;

  // Retitle every member: the entry page re-weaves and its old bytes
  // are replaced in the site and in the next published epoch — the held
  // response must not notice. (Copy the member list first: each
  // retitle regenerates the structure under the iteration.)
  const std::vector<hm::Member> members = engine->structure().members();
  for (const hm::Member& m : members) {
    (void)engine->retitle_node(m.node_id, m.title + " (v2)");
  }
  EXPECT_EQ(*held.body, before);
  EXPECT_NE(*engine->server().get(entry).body, before);
}

TEST(SharedBody, BrowserPageStableAcrossMutationUntilRefresh) {
  auto engine = paper_engine();
  site::Browser browser = engine->open_browser();
  // Guernica's page carries a "Prev: <guitar's title>" anchor, so
  // retitling guitar re-weaves guernica.html.
  ASSERT_TRUE(browser.navigate("guernica.html"));
  ASSERT_NE(browser.page(), nullptr);
  const std::string before = *browser.page();

  (void)engine->retitle_node("guitar", "Old Guitarist (mk2)");
  // Not refreshed yet: the browser still shows (valid!) old bytes.
  EXPECT_EQ(*browser.page(), before);
  browser.refresh();
  EXPECT_NE(*browser.page(), before);
  EXPECT_NE(browser.page()->find("mk2"), std::string::npos);
}

// --- satellite: server counters ----------------------------------------------

// HypermediaServer is a stateless resolver: it counts every GET and every
// 404, and always answers with the site's current shared bytes.
TEST(ServerStats, CountsRequestsAndMissesOverTheLiveSite) {
  site::VirtualSite vsite;
  vsite.put("a.html", "a");
  site::HypermediaServer server(vsite, "http://host/site/");

  site::Response first = server.get("a.html");
  site::Response second = server.get("http://host/site/a.html#top");
  (void)server.get("nope.html");
  (void)server.get("http://elsewhere.example/a.html");

  EXPECT_EQ(server.requests(), 4u);
  EXPECT_EQ(server.misses(), 2u);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.body, vsite.get_shared("a.html"));
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(first.content_type, "text/html");
}

// --- snapshot store -----------------------------------------------------------

TEST(SnapshotStore, PublishesMonotonicEpochs) {
  site::VirtualSite vsite;
  vsite.put("a.html", "a");
  navsep::xlink::TraversalGraph empty;
  serve::SnapshotStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.current(), nullptr);

  store.publish(std::make_shared<serve::SiteSnapshot>(vsite, empty,
                                                      "http://h/s/", 1));
  EXPECT_EQ(store.epoch(), 1u);
  ASSERT_NE(store.current(), nullptr);

  // Epochs must advance: same-epoch republication is a writer bug.
  EXPECT_THROW(store.publish(std::make_shared<serve::SiteSnapshot>(
                   vsite, empty, "http://h/s/", 1)),
               navsep::SemanticError);
  EXPECT_THROW(store.publish(nullptr), navsep::SemanticError);
}

TEST(SnapshotStore, HeldSnapshotSurvivesLaterEpochs) {
  auto engine = synthetic_engine(4);
  std::shared_ptr<const serve::SiteSnapshot> pinned =
      engine->snapshots().current();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch(), 1u);
  const std::map<std::string, std::string> before = site_bytes(*engine);

  const std::vector<hm::Member> members = engine->structure().members();
  for (const hm::Member& m : members) {
    (void)engine->retitle_node(m.node_id, m.title + "!");
  }
  EXPECT_GT(engine->snapshots().epoch(), 1u);

  // The pinned epoch-1 snapshot still serves the epoch-1 bytes.
  for (const auto& [path, bytes] : before) {
    auto body = pinned->body(path);
    ASSERT_NE(body, nullptr) << path;
    EXPECT_EQ(*body, bytes) << path;
  }
}

TEST(SiteSnapshot, RespondMatchesHypermediaServer) {
  auto engine = paper_engine();
  std::shared_ptr<const serve::SiteSnapshot> snap =
      engine->snapshots().current();
  ASSERT_NE(snap, nullptr);
  // An independent reference: the engine's own server() reads snapshots
  // itself, so resolve the writer-side site directly instead.
  const site::HypermediaServer reference(engine->site(),
                                         engine->server().base());

  for (const std::string& path : engine->site().paths()) {
    site::Response from_snapshot = snap->respond(path);
    site::Response from_server = reference.get(path);
    ASSERT_TRUE(from_snapshot.ok()) << path;
    EXPECT_EQ(*from_snapshot.body, *from_server.body) << path;
    EXPECT_EQ(from_snapshot.content_type, from_server.content_type) << path;
  }
  // Absolute URI under the base, with a fragment to strip.
  site::Response absolute =
      snap->respond(reference.base() + "guitar.html#frag");
  ASSERT_TRUE(absolute.ok());
  EXPECT_EQ(*absolute.body, *reference.get("guitar.html").body);
  // Outside the base and plain 404s.
  EXPECT_FALSE(snap->respond("http://elsewhere.example/x.html").ok());
  EXPECT_FALSE(snap->respond("nope.html").ok());
}

TEST(SiteSnapshot, OutgoingArcsAreSelfContained) {
  auto engine = paper_engine();
  std::shared_ptr<const serve::SiteSnapshot> snap =
      engine->snapshots().current();

  const std::vector<serve::SnapshotArc>& arcs = snap->outgoing("guitar.html");
  ASSERT_FALSE(arcs.empty());
  const serve::SnapshotArc* next = snap->outgoing_with_role("guitar.html",
                                                            "next");
  ASSERT_NE(next, nullptr);
  EXPECT_TRUE(next->traversable);
  // Same arc set the engine's traversal graph reports for the page.
  EXPECT_EQ(arcs.size(),
            engine->arc_table()
                .outgoing(engine->server().base() + "guitar.html")
                .size());
}

// --- concurrent server --------------------------------------------------------

TEST(ConcurrentServer, RequiresAPublishedSnapshot) {
  serve::SnapshotStore empty;
  EXPECT_THROW(serve::ConcurrentServer{empty}, navsep::SemanticError);
}

TEST(ConcurrentServer, ServesByteIdenticalToEngineServer) {
  auto engine = paper_engine();
  auto server = engine->open_concurrent();
  EXPECT_EQ(server->base(), engine->server().base());

  for (const std::string& path : engine->site().paths()) {
    site::Response concurrent = server->get(path);
    site::Response single = engine->server().get(path);
    ASSERT_TRUE(concurrent.ok()) << path;
    EXPECT_EQ(*concurrent.body, *single.body) << path;
  }
  EXPECT_FALSE(server->get("nope.html").ok());

  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.base.requests, engine->site().paths().size() + 1);
  EXPECT_EQ(s.base.not_found, 1u);
  EXPECT_EQ(s.base.entries, engine->site().paths().size());
}

TEST(ConcurrentServer, CacheHitsThenEpochInvalidation) {
  auto engine = paper_engine();
  auto server = engine->open_concurrent(4);

  site::Response first = server->get("guitar.html");
  site::Response second = server->get("guitar.html");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.body, second.body);  // same shared bytes, cache hit
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.base.hits, 1u);
  EXPECT_EQ(s.base.stale_refills, 0u);

  // A mutation publishes a new epoch: the cached entry is stale and the
  // next GET refills it with the re-woven bytes. Retitling guernica
  // re-weaves guitar.html (its "Next: Guernica" anchor).
  (void)engine->retitle_node("guernica", "Guernica (retitled)");
  site::Response third = server->get("guitar.html");
  ASSERT_TRUE(third.ok());
  EXPECT_NE(*third.body, *first.body);
  EXPECT_EQ(*third.body, *engine->server().get("guitar.html").body);
  s = server->unified_stats();
  EXPECT_EQ(s.base.stale_refills, 1u);
  EXPECT_EQ(s.epoch, 2u);
  // The pre-mutation response still reads fine (shared ownership).
  EXPECT_NE(first.body->find("guitar"), std::string::npos);
}

TEST(ConcurrentServer, StaleEntryForRemovedPathRetires) {
  auto engine = synthetic_engine(3);
  auto server = engine->open_concurrent();
  // Swapping to a structure over fewer members retires pages; a path
  // cached in epoch 1 that no longer exists must 404, not serve stale.
  const std::string victim_node = engine->structure().members().back().node_id;
  const std::string victim_path = navsep::core::default_href_for(victim_node);
  ASSERT_TRUE(server->get(victim_path).ok());

  std::vector<hm::Member> members = engine->structure().members();
  members.pop_back();
  (void)engine->set_access_structure(
      hm::make_access_structure(AccessStructureKind::Index,
                                engine->structure().name(), members));
  EXPECT_FALSE(engine->site().contains(victim_path));
  EXPECT_FALSE(server->get(victim_path).ok());
  EXPECT_FALSE(server->get(victim_path).ok());  // and stays 404
}

TEST(ConcurrentServer, BrowserRunsOverIt) {
  auto engine = paper_engine();
  auto server = engine->open_concurrent();
  site::Browser browser(*server, engine->arc_table());

  ASSERT_TRUE(browser.navigate("guitar.html"));
  ASSERT_NE(browser.page(), nullptr);
  EXPECT_EQ(*browser.page(), *engine->server().get("guitar.html").body);
  EXPECT_TRUE(browser.follow_role("next"));
  EXPECT_TRUE(browser.back());
  EXPECT_EQ(browser.location(), server->base() + "guitar.html");
}

// --- workload driver ----------------------------------------------------------

TEST(LatencyHistogram, RecordsMergesAndAnswersQuantiles) {
  // The workload's per-session latency tally: a plain obs::HistogramView.
  obs::HistogramView h;
  h.record(100);   // bucket [64,128)
  h.record(1000);  // bucket [512,1024)
  h.record(1000);
  h.record(100000);  // bucket [65536,131072)
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 102100u);
  EXPECT_EQ(h.max, 100000u);
  EXPECT_LE(h.quantile(0.0), 128.0);
  // Interpolated within the bucket: the median sample lives in
  // [512, 1024), so the reported quantile must too — not the bucket's
  // upper bound (the old behavior, which overstated it by up to 2x).
  EXPECT_GE(h.quantile(0.5), 512.0);
  EXPECT_LT(std::llround(h.quantile(0.5)), 1024);
  // The top quantile clamps to the observed maximum, exactly.
  EXPECT_EQ(h.quantile(1.0), 100000.0);

  obs::HistogramView other;
  other.record(1 << 20);
  h.merge(other);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.quantile(1.0), static_cast<double>(1u << 20));
}

TEST(Workload, DrivesAllBehaviorsWithoutFailures) {
  // All-paintings structure: every node a context can reach has a woven
  // page, so a quiescent site must produce zero 404s.
  auto engine = synthetic_engine(5);
  serve::Workload workload(*engine);
  serve::WorkloadOptions options;
  options.threads = 4;
  options.steps_per_session = 64;
  serve::WorkloadResult result = workload.run(options);

  EXPECT_EQ(result.sessions, 4u);
  EXPECT_EQ(result.steps, 4u * 64u);
  EXPECT_GE(result.requests, result.steps);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.latency.count, result.requests);
  EXPECT_GT(result.throughput_rps, 0.0);
  EXPECT_EQ(result.server.base.requests, result.requests);
  ASSERT_EQ(result.by_behavior.size(), 4u);
  for (const serve::BehaviorTally& tally : result.by_behavior) {
    EXPECT_EQ(tally.sessions, 1u);
    EXPECT_GT(tally.requests, 0u) << serve::to_string(tally.behavior);
  }
}

TEST(Workload, DeterministicPerSeedOnAQuiescentSite) {
  auto engine = synthetic_engine(4);
  serve::Workload workload(*engine);
  serve::WorkloadOptions options;
  options.threads = 3;
  options.steps_per_session = 40;
  options.seed = 99;
  serve::WorkloadResult a = workload.run(options);
  serve::WorkloadResult b = workload.run(options);
  // Sessions are seeded deterministically and the site does not move, so
  // the traffic (though interleaved differently) is identical.
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.failures, 0u);
}

// --- the TSan stress: readers vs writers --------------------------------------

// Readers hammer the ConcurrentServer while one writer alternates the
// linkbase between two authored states (A and B) and periodically forces
// a full rebuild(). Every body any reader ever sees must be
// byte-identical to state A's or state B's bytes for that path — the
// single-threaded build is the oracle; anything else is a torn read.
TEST(ServeStress, ReadersSeeOnlyOracleBytesUnderConcurrentWrites) {
  auto engine = synthetic_engine(4);

  const std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  std::size_t up_index = 0;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].role == hm::roles::kUp) {
      up_index = i;
      break;
    }
  }
  hm::AccessArc arc_a = arcs[up_index];
  arc_a.title = "Index (state A)";
  hm::AccessArc arc_b = arcs[up_index];
  arc_b.title = "Index (state B)";

  (void)engine->replace_arc(up_index, arc_a);
  const std::map<std::string, std::string> oracle_a = site_bytes(*engine);
  (void)engine->replace_arc(up_index, arc_b);
  const std::map<std::string, std::string> oracle_b = site_bytes(*engine);
  ASSERT_EQ(oracle_a.size(), oracle_b.size());
  (void)engine->replace_arc(up_index, arc_a);

  auto server = engine->open_concurrent(8);
  std::vector<std::string> paths;
  for (const auto& [path, _] : oracle_a) paths.push_back(path);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> not_ok{0};
  std::atomic<std::size_t> torn{0};

  constexpr std::size_t kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = r;  // stagger the walk per reader
      while (!done.load(std::memory_order_acquire)) {
        const std::string& path = paths[i++ % paths.size()];
        site::Response resp = server->get(path);
        if (!resp.ok()) {
          not_ok.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        const std::string& body = *resp.body;
        auto a = oracle_a.find(path);
        auto b = oracle_b.find(path);
        const bool matches = (a != oracle_a.end() && body == a->second) ||
                             (b != oracle_b.end() && body == b->second);
        if (!matches) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The single writer: the linkbase edit ping-pongs A<->B; every 8th
  // round a full rebuild() exercises the blanket path concurrently too.
  constexpr std::size_t kWrites = 48;
  for (std::size_t w = 0; w < kWrites; ++w) {
    (void)engine->replace_arc(up_index, (w % 2 == 0) ? arc_b : arc_a);
    if (w % 8 == 7) engine->rebuild();
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  // The page set never changes in this workload, so no read may 404.
  EXPECT_EQ(not_ok.load(), 0u);

  // Final convergence: after the dust settles, a full single-threaded
  // rebuild and the served snapshot agree byte-for-byte on every path.
  engine->rebuild();
  const std::map<std::string, std::string> final_bytes = site_bytes(*engine);
  for (const auto& [path, bytes] : final_bytes) {
    site::Response resp = server->get(path);
    ASSERT_TRUE(resp.ok()) << path;
    EXPECT_EQ(*resp.body, bytes) << path;
  }
}

// The full stack under concurrent writes: behavior sessions (including
// NavigationSession-driven ones) navigating while the writer re-authors
// navigation. 404s are tolerated (pages retire mid-flight); data races
// and torn reads are what TSan is watching for.
TEST(ServeStress, WorkloadSurvivesConcurrentLinkbaseEdits) {
  auto engine = synthetic_engine(4);
  serve::Workload workload(*engine);  // capture BEFORE the writer starts

  const std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    // At least a few publications are guaranteed to overlap the traffic
    // (scheduling may let the workload finish first otherwise), then
    // keep editing until the workload is done.
    std::size_t w = 0;
    while (w < 8 || !done.load(std::memory_order_acquire)) {
      hm::AccessArc edited = arcs[w % arcs.size()];
      edited.title += " (w" + std::to_string(w) + ")";
      (void)engine->replace_arc(w % arcs.size(), edited);
      ++w;
      std::this_thread::yield();
    }
  });

  serve::WorkloadOptions options;
  options.threads = 4;
  options.steps_per_session = 96;
  serve::WorkloadResult result = workload.run(options);
  done.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(result.steps, 4u * 96u);
  EXPECT_GT(result.requests, 0u);
  EXPECT_EQ(result.latency.count, result.requests);
  EXPECT_GT(engine->snapshots().epoch(), 1u);  // the writer really published
}

// --- Menu structures: failed mutations leave the served site coherent -----------

// Menu arcs derive from sub-structures, not a member list. A Menu built
// from visible subs is mutable these days (the engine captures the sub
// specs), but a Menu the engine cannot see into — here one whose sub is
// itself a Menu — stays opaque, and the kind-based mutation paths
// (set_access_structure(kind) / add_node / retitle_node) still refuse it
// with SemanticError. The contract under test (regression for the
// original guard): the refusal is an exception, not a crash; it happens
// BEFORE any engine state moves, so no epoch is published and a live
// ConcurrentServer keeps serving the exact pre-mutation bytes — even
// with readers in flight — and the engine accepts further (valid)
// mutations afterwards.
TEST(MenuMutations, FailedKindMutationsPublishNoEpochAndReadersStayCoherent) {
  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 2,
                        .paintings_per_painter = 3,
                        .movements = 2,
                        .seed = 13})
                    .access(AccessStructureKind::Index, "painter-0")
                    .contexts({"ByAuthor"})
                    .weave()
                    .serve();
  std::vector<std::unique_ptr<hm::AccessStructure>> inner;
  inner.push_back(hm::make_access_structure(AccessStructureKind::Index,
                                            "wing-a",
                                            engine->structure().members()));
  std::vector<std::unique_ptr<hm::AccessStructure>> subs;
  subs.push_back(std::make_unique<hm::Menu>("east", std::move(inner)));
  (void)engine->set_access_structure(
      std::make_unique<hm::Menu>("floors", std::move(subs)));
  ASSERT_EQ(engine->structure().kind(), AccessStructureKind::Menu);

  auto server = engine->open_concurrent();
  const std::uint64_t epoch_before = server->epoch();
  const std::map<std::string, std::string> before = site_bytes(*engine);

  // A painting that is not a member (painter-1's work), for add_node.
  std::string newcomer;
  for (const auto* node : engine->navigation().nodes_of("PaintingNode")) {
    const auto& members = engine->structure().members();
    if (std::none_of(members.begin(), members.end(), [&](const auto& m) {
          return m.node_id == node->id();
        })) {
      newcomer = node->id();
      break;
    }
  }
  ASSERT_FALSE(newcomer.empty());

  // Readers keep traversing the live server while the writer's
  // mutations fail; every body they see must be the pre-mutation bytes.
  std::atomic<bool> done{false};
  std::atomic<std::size_t> torn{0};
  std::thread reader([&] {
    std::size_t i = 0;
    std::vector<std::string> paths;
    for (const auto& [path, _] : before) paths.push_back(path);
    while (!done.load(std::memory_order_acquire)) {
      const std::string& path = paths[i++ % paths.size()];
      site::Response r = server->get(path);
      if (!r.ok() || *r.body != before.at(path)) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  const std::string member = engine->structure().members().front().node_id;
  EXPECT_THROW((void)engine->retitle_node(member, "Wing A"),
               navsep::SemanticError);
  EXPECT_THROW((void)engine->add_node(newcomer), navsep::SemanticError);
  EXPECT_THROW((void)engine->set_access_structure(AccessStructureKind::Menu),
               navsep::SemanticError);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(server->epoch(), epoch_before);
  EXPECT_EQ(site_bytes(*engine), before);
  for (const auto& [path, bytes] : before) {
    site::Response r = server->get(path);
    ASSERT_TRUE(r.ok()) << path;
    EXPECT_EQ(*r.body, bytes) << path;
  }

  // The engine is not wedged: arc-level edits still work on a Menu and
  // publish a fresh epoch the server picks up.
  std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  ASSERT_FALSE(arcs.empty());
  arcs[0].title = "Ground floor";
  (void)engine->replace_arc(0, arcs[0]);
  EXPECT_GT(server->epoch(), epoch_before);
  const std::string entry_page =
      navsep::core::default_href_for(arcs[0].from);
  site::Response after = server->get(entry_page);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.body->find("Ground floor"), std::string::npos);
}

}  // namespace
