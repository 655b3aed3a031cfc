// Predictive cache warming: ConcurrentServer::warm()'s outcome
// contract (oracle bytes, silent traffic counters, admission control
// that never evicts a resident, cold-end recency placement) and the
// CacheWarmer driver (feed ranking, synchronous cycles, the background
// epoch-triggered lane, metrics export).
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hypermedia/access.hpp"
#include "nav/pipeline.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "serve/cache_warmer.hpp"
#include "serve/concurrent_server.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace serve = navsep::serve;
using serve::ConcurrentServer;
using WarmOutcome = ConcurrentServer::WarmOutcome;
using navsep::testing::html_pages;
using navsep::testing::profile_oracle;

std::unique_ptr<nav::Engine> synthetic_engine(std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 2,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 2,
                                                .seed = 7})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor"})
      .weave()
      .serve();
}

/// Wait until `done()` holds or ~2s elapse (background-lane tests).
bool eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 2000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// --- warm(): the base layer ---------------------------------------------------

TEST(WarmBase, ServesOracleBytesWithoutMovingTrafficCounters) {
  auto engine = synthetic_engine(4);
  auto server = engine->open_concurrent(1);
  const std::vector<std::string> pages = html_pages(*engine);
  ASSERT_FALSE(pages.empty());
  const std::string& page = pages.front();

  const ConcurrentServer::UnifiedStats before = server->unified_stats();
  EXPECT_EQ(server->warm(page), WarmOutcome::Warmed);
  ConcurrentServer::UnifiedStats after = server->unified_stats();
  // Warming is invisible to organic hit-ratio math...
  EXPECT_EQ(after.base.requests, before.base.requests);
  EXPECT_EQ(after.base.hits, before.base.hits);
  EXPECT_EQ(after.base.resolves, before.base.resolves);
  EXPECT_EQ(after.base.not_found, before.base.not_found);
  // ...but fully visible to the residency ledger.
  EXPECT_EQ(after.base.entries, before.base.entries + 1);
  EXPECT_EQ(after.base.inserted, before.base.inserted + 1);
  EXPECT_EQ(after.base.inserted, after.base.entries + after.base.evicted);

  // The first organic request finds the warmed entry — a hit serving
  // exactly the authored artifact's bytes, no resolve paid.
  navsep::site::Response r = server->get(page);
  ASSERT_TRUE(r.ok());
  const std::string* artifact = engine->site().get(page);
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(*r.body, *artifact);
  after = server->unified_stats();
  EXPECT_EQ(after.base.hits, before.base.hits + 1);
  EXPECT_EQ(after.base.resolves, before.base.resolves);
}

TEST(WarmBase, AlreadyHotWhenValidAndRefreshesAcrossEpochs) {
  auto engine = synthetic_engine(4);
  auto server = engine->open_concurrent(1);
  const std::vector<std::string> pages = html_pages(*engine);
  const std::string& page = pages.front();

  ASSERT_EQ(server->warm(page), WarmOutcome::Warmed);
  EXPECT_EQ(server->warm(page), WarmOutcome::AlreadyHot);
  // An organically cached page is just as hot.
  ASSERT_TRUE(server->get(pages.back()).ok());
  EXPECT_EQ(server->warm(pages.back()), WarmOutcome::AlreadyHot);

  // A publication stales the entry; re-warming refreshes it in place
  // (same key — no insert, no evict) and the next get hits fresh bytes.
  const auto& member = engine->structure().members().front();
  (void)engine->retitle_node(member.node_id, "Warmed Again");
  EXPECT_EQ(server->warm(page), WarmOutcome::Warmed);
  const ConcurrentServer::UnifiedStats mid = server->unified_stats();
  navsep::site::Response r = server->get(page);
  ASSERT_TRUE(r.ok());
  const std::string* artifact = engine->site().get(page);
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(*r.body, *artifact);
  EXPECT_EQ(server->unified_stats().base.resolves, mid.base.resolves);
  EXPECT_EQ(server->unified_stats().base.stale_refills, mid.base.stale_refills);
}

// --- warm(): the overlay layer ------------------------------------------------

TEST(WarmOverlay, ServesProfileOracleBytesAndTolerates404s) {
  auto engine = synthetic_engine(4);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent(1);
  const std::vector<std::string> pages = html_pages(*engine);
  const std::string& page = pages.front();
  const std::map<std::string, std::string> oracle =
      profile_oracle(*engine, {"tour", {"ByAuthor"}});
  ASSERT_NE(oracle.find(page), oracle.end());

  const ConcurrentServer::UnifiedStats before = server->unified_stats();
  EXPECT_EQ(server->warm(page, "tour"), WarmOutcome::Warmed);
  EXPECT_EQ(server->warm(page, "tour"), WarmOutcome::AlreadyHot);
  ConcurrentServer::UnifiedStats after = server->unified_stats();
  EXPECT_EQ(after.overlay.requests, before.overlay.requests);
  EXPECT_EQ(after.overlay.resolves, before.overlay.resolves);
  EXPECT_EQ(after.overlay.entries, before.overlay.entries + 1);

  navsep::site::Response r = server->get(page, "tour");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.body, oracle.at(page));
  after = server->unified_stats();
  EXPECT_EQ(after.overlay.hits, before.overlay.hits + 1);
  EXPECT_EQ(after.overlay.resolves, before.overlay.resolves);

  // Feeds outlive topology: a retired profile or a vanished page is
  // NotFound, never a throw (get() would throw on the profile).
  EXPECT_EQ(server->warm(page, "no-such-profile"), WarmOutcome::NotFound);
  EXPECT_EQ(server->warm("no/such/page.html", "tour"), WarmOutcome::NotFound);
  EXPECT_EQ(server->warm("no/such/page.html"), WarmOutcome::NotFound);
}

// --- warm(): admission control ------------------------------------------------

TEST(WarmAdmission, NeverEvictsAResidentForAPrediction) {
  auto engine = synthetic_engine(4);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent(
      1, serve::CacheLimits{.base_entries_per_shard = 1,
                            .overlay_entries_per_shard = 1});
  const std::vector<std::string> pages = html_pages(*engine);
  ASSERT_GE(pages.size(), 2u);

  // Organic traffic fills the single slot; a colder prediction must be
  // refused, not admitted over it — on both layers.
  ASSERT_TRUE(server->get(pages[0]).ok());
  ASSERT_TRUE(server->get(pages[0], "tour").ok());
  EXPECT_EQ(server->warm(pages[1]), WarmOutcome::NoRoom);
  EXPECT_EQ(server->warm(pages[1], "tour"), WarmOutcome::NoRoom);

  const ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.base.entries, 1u);
  EXPECT_EQ(s.base.evicted, 0u);
  EXPECT_EQ(s.overlay.entries, 1u);
  EXPECT_EQ(s.overlay.evicted, 0u);
  // The residents survived: both serve as hits.
  const std::size_t resolves = s.base.resolves;
  const std::size_t renders = s.overlay.resolves;
  ASSERT_TRUE(server->get(pages[0]).ok());
  ASSERT_TRUE(server->get(pages[0], "tour").ok());
  EXPECT_EQ(server->unified_stats().base.resolves, resolves);
  EXPECT_EQ(server->unified_stats().overlay.resolves, renders);
}

TEST(WarmAdmission, RespectsByteBudgetsAndZeroCapPassthrough) {
  auto engine = synthetic_engine(4);
  const std::vector<std::string> pages = html_pages(*engine);
  ASSERT_GE(pages.size(), 2u);
  const std::string* body0 = engine->site().get(pages[0]);
  ASSERT_NE(body0, nullptr);

  // A byte budget sized to exactly one resident body: the resident
  // stays, the warm attempt reports NoRoom.
  auto sized = engine->open_concurrent(
      1, serve::CacheLimits{.base_bytes_per_shard = body0->size()});
  ASSERT_TRUE(sized->get(pages[0]).ok());
  EXPECT_EQ(sized->warm(pages[1]), WarmOutcome::NoRoom);
  EXPECT_EQ(sized->unified_stats().base.resident_bytes, body0->size());

  // A body bigger than the whole budget can never be admitted, even
  // into an empty cache.
  auto tiny = engine->open_concurrent(
      1, serve::CacheLimits{.base_bytes_per_shard = 1});
  EXPECT_EQ(tiny->warm(pages[0]), WarmOutcome::NoRoom);
  EXPECT_EQ(tiny->unified_stats().base.entries, 0u);

  // Zero caps degenerate to pass-through: nothing retained, so nothing
  // to warm.
  auto passthrough = engine->open_concurrent(
      1, serve::CacheLimits{.base_entries_per_shard = 0,
                            .overlay_entries_per_shard = 0});
  EXPECT_EQ(passthrough->warm(pages[0]), WarmOutcome::NoRoom);
  EXPECT_EQ(passthrough->unified_stats().base.entries, 0u);
}

TEST(WarmAdmission, WarmedEntriesJoinTheColdEndOfRecency) {
  auto engine = synthetic_engine(4);
  auto server = engine->open_concurrent(
      1, serve::CacheLimits{.base_entries_per_shard = 2});
  const std::vector<std::string> pages = html_pages(*engine);
  ASSERT_GE(pages.size(), 3u);
  const std::string &a = pages[0], &b = pages[1], &c = pages[2];

  // A warmed entry is a prediction, so when organic traffic needs the
  // space it is the first out — even though it arrived first-ish.
  ASSERT_EQ(server->warm(a), WarmOutcome::Warmed);
  ASSERT_TRUE(server->get(b).ok());  // organic, hotter than the warmed a
  ASSERT_TRUE(server->get(c).ok());  // cap 2: evicts a, the cold prediction
  const ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.base.entries, 2u);
  EXPECT_EQ(s.base.evicted, 1u);
  const std::size_t resolves = s.base.resolves;
  ASSERT_TRUE(server->get(b).ok());  // survived
  EXPECT_EQ(server->unified_stats().base.resolves, resolves);
  ASSERT_TRUE(server->get(a).ok());  // the prediction was the victim
  EXPECT_EQ(server->unified_stats().base.resolves, resolves + 1);
}

// --- CacheWarmer --------------------------------------------------------------

TEST(CacheWarmerDriver, WarmNowWalksTheFeedHottestFirstUpToTopN) {
  auto engine = synthetic_engine(4);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent(1);
  const std::vector<std::string> pages = html_pages(*engine);
  ASSERT_GE(pages.size(), 3u);

  // A ranked feed the way TraceAggregate::top_entries hands it over:
  // hottest first, base and overlay traffic interleaved.
  serve::CacheWarmer warmer(*server, {.top_n = 3});
  warmer.set_feed({{pages[0], "", 90},
                   {pages[0], "tour", 70},
                   {pages[1], "no-such-profile", 50},
                   {pages[2], "", 10}});  // beyond top_n: must NOT warm
  const serve::CacheWarmer::WarmStats stats = warmer.warm_now();
  EXPECT_EQ(stats.cycles, 1u);
  EXPECT_EQ(stats.attempted, 3u);
  EXPECT_EQ(stats.warmed, 2u);
  EXPECT_EQ(stats.not_found, 1u);
  EXPECT_EQ(stats.attempted, stats.warmed + stats.already_hot + stats.no_room +
                                 stats.not_found);
  EXPECT_EQ(stats.last_epoch, server->epoch());

  // The warmed pair serve as hits with oracle bytes; the beyond-top_n
  // page still pays its resolve.
  const std::map<std::string, std::string> oracle =
      profile_oracle(*engine, {"tour", {"ByAuthor"}});
  const ConcurrentServer::UnifiedStats before = server->unified_stats();
  navsep::site::Response base = server->get(pages[0]);
  navsep::site::Response over = server->get(pages[0], "tour");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(*base.body, *engine->site().get(pages[0]));
  EXPECT_EQ(*over.body, oracle.at(pages[0]));
  EXPECT_EQ(server->unified_stats().base.resolves, before.base.resolves);
  EXPECT_EQ(server->unified_stats().overlay.resolves, before.overlay.resolves);
  ASSERT_TRUE(server->get(pages[2]).ok());
  EXPECT_EQ(server->unified_stats().base.resolves, before.base.resolves + 1);

  // A second cycle over the unchanged feed finds everything resident.
  const serve::CacheWarmer::WarmStats again = warmer.warm_now();
  EXPECT_EQ(again.cycles, 2u);
  EXPECT_EQ(again.already_hot, stats.already_hot + 2);
}

TEST(CacheWarmerDriver, BackgroundLaneWarmsOnceAfterEveryEpoch) {
  auto engine = synthetic_engine(4);
  auto server = engine->open_concurrent(1);
  const std::vector<std::string> pages = html_pages(*engine);
  const std::string& page = pages.front();

  serve::CacheWarmer warmer(*server, {.top_n = 8,
                                      .poll = std::chrono::milliseconds(1)});
  warmer.set_feed({{page, "", 100}});
  warmer.start();
  warmer.start();  // idempotent

  // The lane warms once immediately against the epoch current at start.
  ASSERT_TRUE(eventually([&] {
    const serve::CacheWarmer::WarmStats s = warmer.stats();
    return s.cycles >= 1 && s.last_epoch == server->epoch();
  }));
  EXPECT_GE(warmer.stats().warmed, 1u);

  // A publication stales the entry; the lane notices the new epoch and
  // re-warms without anyone calling it.
  const std::uint64_t before_epoch = server->epoch();
  const auto& member = engine->structure().members().front();
  (void)engine->retitle_node(member.node_id, "Lane Refresh");
  ASSERT_GT(server->epoch(), before_epoch);
  ASSERT_TRUE(eventually([&] {
    return warmer.stats().last_epoch == server->epoch();
  }));
  warmer.stop();
  warmer.stop();  // idempotent

  const ConcurrentServer::UnifiedStats before = server->unified_stats();
  navsep::site::Response r = server->get(page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.body, *engine->site().get(page));
  EXPECT_EQ(server->unified_stats().base.resolves, before.base.resolves);
}

TEST(CacheWarmerDriver, RegisterMetricsExportsWarmGauges) {
  auto engine = synthetic_engine(4);
  auto server = engine->open_concurrent(1);
  const std::vector<std::string> pages = html_pages(*engine);

  serve::CacheWarmer warmer(*server);
  warmer.set_feed({{pages.front(), "", 5}});
  (void)warmer.warm_now();

  auto registry = std::make_shared<obs::Registry>();
  obs::SamplerHandle handle = warmer.register_metrics(registry);
  const obs::Registry::Snapshot snap = registry->snapshot();
  EXPECT_EQ(snap.gauges.at("serve.warm.cycles"), 1);
  EXPECT_EQ(snap.gauges.at("serve.warm.attempted"), 1);
  EXPECT_EQ(snap.gauges.at("serve.warm.warmed"), 1);
  EXPECT_EQ(snap.gauges.at("serve.warm.no_room"), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.gauges.at("serve.warm.epoch")),
            server->epoch());
}

}  // namespace
