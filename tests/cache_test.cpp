// Bounded serve caches: LRU order, the residency ledger
// (inserted == resident + evicted), cap enforcement under churn, and the
// zero-cap pass-through degeneration — over both layers of
// serve::ConcurrentServer (the base epoch-validated shards and the
// slice-validated overlay shards).
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "nav/pipeline.hpp"
#include "oracle.hpp"
#include "serve/concurrent_server.hpp"
#include "site/virtual_site.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace serve = navsep::serve;
namespace site = navsep::site;
using navsep::testing::html_pages;
using navsep::testing::profile_oracle;

std::unique_ptr<nav::Engine> synthetic_engine(std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 2,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 2,
                                                .seed = 5})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor"})
      .weave()
      .serve();
}

/// The residency ledger must balance on BOTH layers whenever sampled at
/// rest: every entry ever added is either still resident or was removed.
void expect_ledger_balances(const serve::ConcurrentServer::UnifiedStats& s) {
  EXPECT_EQ(s.base.inserted, s.base.entries + s.base.evicted);
  EXPECT_EQ(s.overlay.inserted, s.overlay.entries + s.overlay.evicted);
}

// --- LRU order ----------------------------------------------------------------

TEST(CacheBounds, LruEvictsTheColdestAndTouchKeepsAlive) {
  auto engine = synthetic_engine(4);
  auto server = engine->open_concurrent(
      1, serve::CacheLimits{.base_entries_per_shard = 2,
                            .overlay_entries_per_shard = 2});
  std::vector<std::string> pages = html_pages(*engine);
  ASSERT_GE(pages.size(), 3u);
  const std::string &a = pages[0], &b = pages[1], &c = pages[2];

  ASSERT_TRUE(server->get(a).ok());
  ASSERT_TRUE(server->get(b).ok());
  ASSERT_TRUE(server->get(a).ok());  // touch: a is now the most recent
  ASSERT_TRUE(server->get(c).ok());  // cap 2: evicts b, the coldest
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.base.entries, 2u);
  EXPECT_EQ(s.base.inserted, 3u);
  EXPECT_EQ(s.base.evicted, 1u);
  expect_ledger_balances(s);

  // The re-touched entry survived (hit), the evicted one re-resolves.
  const std::size_t resolves_before = s.base.resolves;
  ASSERT_TRUE(server->get(a).ok());
  EXPECT_EQ(server->unified_stats().base.resolves, resolves_before);
  ASSERT_TRUE(server->get(b).ok());
  EXPECT_EQ(server->unified_stats().base.resolves, resolves_before + 1);
}

TEST(CacheBounds, OverlayLayerEvictsLruToo) {
  auto engine = synthetic_engine(4);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent(
      1, serve::CacheLimits{.overlay_entries_per_shard = 2});
  std::vector<std::string> pages = html_pages(*engine);
  ASSERT_GE(pages.size(), 3u);

  ASSERT_TRUE(server->get(pages[0], "tour").ok());
  ASSERT_TRUE(server->get(pages[1], "tour").ok());
  ASSERT_TRUE(server->get(pages[0], "tour").ok());  // touch
  ASSERT_TRUE(server->get(pages[2], "tour").ok());  // evicts pages[1]
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.overlay.entries, 2u);
  EXPECT_EQ(s.overlay.inserted, 3u);
  EXPECT_EQ(s.overlay.evicted, 1u);
  expect_ledger_balances(s);

  const std::size_t renders_before = s.overlay.resolves;
  ASSERT_TRUE(server->get(pages[0], "tour").ok());  // survived
  EXPECT_EQ(server->unified_stats().overlay.resolves, renders_before);
  ASSERT_TRUE(server->get(pages[1], "tour").ok());  // was evicted
  EXPECT_EQ(server->unified_stats().overlay.resolves, renders_before + 1);
}

// --- churn stays under the cap, bytes stay right --------------------------------

TEST(CacheBounds, ChurnHoldsTheCapOnBothLayersAndServesOracleBytes) {
  auto engine = synthetic_engine(6);
  engine->register_profile({"tour", {"ByAuthor"}});
  engine->register_profile({"kiosk", {}});
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kCap = 2;
  auto server = engine->open_concurrent(
      kShards, serve::CacheLimits{.base_entries_per_shard = kCap,
                                  .overlay_entries_per_shard = kCap});

  const std::map<std::string, std::string> tour_oracle =
      profile_oracle(*engine, {"tour", {"ByAuthor"}});
  const std::vector<std::string> pages = html_pages(*engine);
  ASSERT_GT(pages.size(), kShards * kCap)
      << "museum too small to overflow the capped layers";

  for (int round = 0; round < 5; ++round) {
    for (const std::string& page : pages) {
      site::Response base = server->get(page);
      ASSERT_TRUE(base.ok()) << page;
      EXPECT_EQ(*base.body, *engine->site().get(page)) << page;
      site::Response overlaid = server->get(page, "tour");
      ASSERT_TRUE(overlaid.ok()) << page;
      EXPECT_EQ(*overlaid.body, tour_oracle.at(page)) << page;
    }
    serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
    EXPECT_LE(s.base.entries, kShards * kCap);
    EXPECT_LE(s.overlay.entries, kShards * kCap);
    expect_ledger_balances(s);
    EXPECT_GT(s.base.evicted, 0u);  // the cap is actually being hit
  }
}

// --- zero cap = pass-through ----------------------------------------------------

TEST(CacheBounds, ZeroCapDegeneratesToPassThrough) {
  auto engine = synthetic_engine(3);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent(
      2, serve::CacheLimits{.base_entries_per_shard = 0,
                            .overlay_entries_per_shard = 0});
  const std::vector<std::string> pages = html_pages(*engine);

  // Every request resolves, nothing is ever retained, no hit, no
  // deadlock — twice over the same paths to prove nothing warmed.
  for (int round = 0; round < 2; ++round) {
    for (const std::string& page : pages) {
      ASSERT_TRUE(server->get(page).ok()) << page;
      ASSERT_TRUE(server->get(page, "tour").ok()) << page;
    }
  }
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.base.entries, 0u);
  EXPECT_EQ(s.base.inserted, 0u);
  EXPECT_EQ(s.base.evicted, 0u);
  EXPECT_EQ(s.base.hits, 0u);
  EXPECT_EQ(s.base.resolves, 2 * pages.size());
  EXPECT_EQ(s.overlay.entries, 0u);
  EXPECT_EQ(s.overlay.inserted, 0u);
  EXPECT_EQ(s.overlay.hits, 0u);
  EXPECT_EQ(s.overlay.resolves, 2 * pages.size());

  // Still correct across a mutation (no stale state exists to serve).
  (void)engine->retitle_node(
      engine->structure().members().front().node_id, "Renamed (v2)");
  const std::string page =
      navsep::core::default_href_for(engine->structure().members()[1].node_id);
  EXPECT_EQ(*server->get(page).body, *engine->site().get(page));
}

// --- staleness retirement is ledgered -------------------------------------------

TEST(CacheBounds, RetiredPathCountsAsEvicted) {
  auto engine = synthetic_engine(3);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent(1);

  const std::string victim_node = engine->structure().members().back().node_id;
  const std::string victim = navsep::core::default_href_for(victim_node);
  ASSERT_TRUE(server->get(victim).ok());
  ASSERT_TRUE(server->get(victim, "tour").ok());

  std::vector<hm::Member> members = engine->structure().members();
  members.pop_back();
  (void)engine->set_access_structure(
      hm::make_access_structure(AccessStructureKind::Index,
                                engine->structure().name(), members));
  EXPECT_FALSE(server->get(victim).ok());
  EXPECT_FALSE(server->get(victim, "tour").ok());
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_GE(s.base.evicted, 1u);
  EXPECT_GE(s.overlay.evicted, 1u);
  expect_ledger_balances(s);
}

// --- limits are introspectable --------------------------------------------------

TEST(CacheBounds, StatsEchoTheConfiguredCaps) {
  auto engine = synthetic_engine(2);
  auto bounded = engine->open_concurrent(
      2, serve::CacheLimits{.base_entries_per_shard = 7,
                            .overlay_entries_per_shard = 3});
  serve::ConcurrentServer::UnifiedStats s = bounded->unified_stats();
  EXPECT_EQ(s.base.entry_cap_per_shard, 7u);
  EXPECT_EQ(s.overlay.entry_cap_per_shard, 3u);

  auto unbounded = engine->open_concurrent();
  EXPECT_EQ(unbounded->unified_stats().base.entry_cap_per_shard,
            serve::CacheLimits::kUnbounded);
  EXPECT_EQ(unbounded->limits().overlay_entries_per_shard,
            serve::CacheLimits::kUnbounded);
}

// --- byte accounting ----------------------------------------------------------

TEST(CacheBytes, ResidentBytesTrackTheCachedBodies) {
  auto engine = synthetic_engine(3);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent(1);

  std::vector<std::string> pages = html_pages(*engine);
  std::size_t expected_base = 0, expected_overlay = 0;
  for (const std::string& page : pages) {
    site::Response base = server->get(page);
    ASSERT_TRUE(base.ok()) << page;
    expected_base += base.body->size();
    site::Response overlay = server->get(page, "tour");
    ASSERT_TRUE(overlay.ok()) << page;
    expected_overlay += overlay.body->size();
  }

  // The byte ledger equals the sum of exactly the bodies held.
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.base.resident_bytes, expected_base);
  EXPECT_EQ(s.overlay.resident_bytes, expected_overlay);
  EXPECT_EQ(s.base.entries, pages.size());
  EXPECT_EQ(s.overlay.entries, pages.size());

  // Re-serving is all hits: bytes must not move.
  for (const std::string& page : pages) {
    (void)server->get(page);
    (void)server->get(page, "tour");
  }
  s = server->unified_stats();
  EXPECT_EQ(s.base.resident_bytes, expected_base);
  EXPECT_EQ(s.overlay.resident_bytes, expected_overlay);
}

TEST(CacheBytes, OverlayResizingRefillsKeepExactBytesWhenUnbounded) {
  // Retitles swing every overlay body longer then shorter, so each
  // sweep refreshes entries in place with a different size. With
  // nothing ever evicted, the overlay byte ledger must equal the sum of
  // exactly the bodies a fresh render would produce — any drift in the
  // refresh delta accumulates here with nowhere to hide.
  auto engine = synthetic_engine(3);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent(1);
  std::vector<std::string> pages = html_pages(*engine);

  const std::string node = engine->structure().members().front().node_id;
  for (int round = 0; round < 4; ++round) {
    (void)engine->retitle_node(
        node, round % 2 == 0 ? std::string(120, 'y') : "s");
    std::size_t expected = 0;
    for (const std::string& page : pages) {
      site::Response r = server->get(page, "tour");
      ASSERT_TRUE(r.ok()) << page;
      expected += r.body->size();
    }
    serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
    EXPECT_EQ(s.overlay.resident_bytes, expected);
    EXPECT_EQ(s.overlay.entries, pages.size());
    EXPECT_EQ(s.overlay.inserted, s.overlay.entries + s.overlay.evicted);
  }
  EXPECT_GE(server->unified_stats().overlay.stale_refills, 1u);
}

TEST(CacheBytes, StaleRefillMovesTheByteLedgerByTheSizeDelta) {
  auto engine = synthetic_engine(3);
  auto server = engine->open_concurrent(1);
  std::vector<std::string> pages = html_pages(*engine);
  std::size_t total = 0;
  for (const std::string& page : pages) {
    site::Response r = server->get(page);
    ASSERT_TRUE(r.ok());
    total += r.body->size();
  }
  ASSERT_EQ(server->unified_stats().base.resident_bytes, total);

  // Retitle one member page: its body grows/shrinks; after the stale
  // refill the ledger must equal the NEW sum, not the old one.
  const std::string node = engine->structure().members().front().node_id;
  (void)engine->retitle_node(node, "a much, much longer title than before");
  std::size_t new_total = 0;
  for (const std::string& page : pages) {
    site::Response r = server->get(page);
    ASSERT_TRUE(r.ok());
    new_total += r.body->size();
  }
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.base.resident_bytes, new_total);
  EXPECT_GE(s.base.stale_refills, 1u);
  EXPECT_EQ(s.base.inserted, s.base.entries + s.base.evicted);
}

}  // namespace
