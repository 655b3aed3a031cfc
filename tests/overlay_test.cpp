// Profile-scoped navigation overlays at serve time.
//
// The contract under test is byte-level: for every registered
// nav::Profile, the overlaid response of every path must equal what a
// full single-threaded build would produce if it wove ONLY that
// profile's context families (site::SiteBuildOptions::weave_context_tours
// — the oracle). On top of identity, the invalidation economics: a
// single family edit re-weaves zero base pages and retires only the
// overlay cache entries of profiles that include that family.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/navigation_aspect.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "oracle.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"
#include "site/virtual_site.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace serve = navsep::serve;
namespace site = navsep::site;
using navsep::testing::expect_profile_matches_oracle;
using navsep::testing::html_pages;
using navsep::testing::profile_oracle;

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
      .conceptual(navsep::museum::SyntheticSpec{.painters = 3,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 2,
                                                .seed = 11})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

/// Register one profile per interesting family subset.
std::vector<nav::Profile> register_standard_profiles(nav::Engine& engine) {
  std::vector<nav::Profile> profiles{
      {"kiosk", {}},
      {"tour", {"ByAuthor"}},
      {"curator", {"ByMovement"}},
      {"everything", {"ByAuthor", "ByMovement"}},
  };
  for (const nav::Profile& p : profiles) {
    engine.register_profile(p);
  }
  return profiles;
}

// The per-profile oracle and the every-path assertion live in
// tests/oracle.{hpp,cpp} (profile_oracle / expect_profile_matches_oracle),
// shared with stress_test.

// --- the byte-identity oracle -------------------------------------------------

TEST(OverlayOracle, EveryProfileMatchesItsFullBuild) {
  auto engine = paper_engine();
  const std::vector<nav::Profile> profiles =
      register_standard_profiles(*engine);
  auto server = engine->open_concurrent();
  for (const nav::Profile& profile : profiles) {
    expect_profile_matches_oracle(*engine, *server, profile);
  }
}

TEST(OverlayOracle, HoldsAcrossStructureAndFamilyMutations) {
  auto engine = synthetic_engine(3);
  const std::vector<nav::Profile> profiles =
      register_standard_profiles(*engine);
  auto server = engine->open_concurrent();

  // Structure mutations re-weave base pages; overlays must track.
  (void)engine->retitle_node(
      engine->structure().members().front().node_id, "Retitled (v2)");
  for (const nav::Profile& profile : profiles) {
    expect_profile_matches_oracle(*engine, *server, profile);
  }

  // A family edit re-authors one contextual linkbase and nothing else.
  nav::RebuildReport report = engine->edit_context_family(
      "ByAuthor", [](hm::ContextFamily& family) {
        std::vector<hm::NavigationalContext> contexts = family.contexts();
        ASSERT_FALSE(contexts.empty());
        std::vector<std::string> ids = contexts.front().node_ids();
        std::reverse(ids.begin(), ids.end());
        contexts.front() = hm::NavigationalContext(
            contexts.front().family(), contexts.front().name(),
            std::move(ids));
        family.replace_contexts(std::move(contexts));
      });
  EXPECT_EQ(report.pages_rewoven, 0u);
  EXPECT_EQ(report.linkbases_reauthored, 1u);
  for (const nav::Profile& profile : profiles) {
    expect_profile_matches_oracle(*engine, *server, profile);
  }

  // And the blanket path agrees too.
  engine->rebuild();
  for (const nav::Profile& profile : profiles) {
    expect_profile_matches_oracle(*engine, *server, profile);
  }
}

TEST(OverlayOracle, InsertsABlockWhereTheBasePageWeavesNone) {
  // A structure with members but zero arcs weaves base pages WITHOUT a
  // navigation block; a profile with tours must still byte-match the
  // full build, which appends the block as the body's last child.
  auto engine = paper_engine();
  std::vector<hm::Member> members = engine->structure().members();
  (void)engine->set_access_structure(
      std::make_unique<hm::MaterializedStructure>(
          engine->structure().name(), AccessStructureKind::Index, members,
          std::vector<hm::AccessArc>{}, engine->structure().entry()));
  const std::vector<nav::Profile> profiles =
      register_standard_profiles(*engine);
  auto server = engine->open_concurrent();

  const std::string page =
      navsep::core::default_href_for(members.front().node_id);
  site::Response base = server->get(page);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.body->find("<div class=\"navigation\">"), std::string::npos);
  site::Response overlaid = server->get(page, "everything");
  ASSERT_TRUE(overlaid.ok());
  EXPECT_NE(overlaid.body->find("<div class=\"navigation\">"),
            std::string::npos);

  for (const nav::Profile& profile : profiles) {
    expect_profile_matches_oracle(*engine, *server, profile);
  }
}

TEST(OverlayOracle, TourGroupsCarryTheirContext) {
  auto engine = paper_engine();
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent();

  site::Response r = server->get("guitar.html", "tour");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.body->find("class=\"nav-tour\""), std::string::npos);
  EXPECT_NE(r.body->find("data-context=\"ByAuthor:picasso\""),
            std::string::npos);
  // The other family stays invisible to this profile.
  EXPECT_EQ(r.body->find("ByMovement:"), std::string::npos);
  EXPECT_FALSE(server->get("links-bymovement.xml", "tour").ok());
  EXPECT_TRUE(server->get("links-byauthor.xml", "tour").ok());
}

TEST(OverlayOracle, EmptyProfileSharesTheBaseBytes) {
  auto engine = paper_engine();
  engine->register_profile({"kiosk", {}});
  auto server = engine->open_concurrent();

  for (const std::string& path : engine->site().paths()) {
    site::Response base = server->get(path);
    site::Response overlaid = server->get(path, "kiosk");
    ASSERT_TRUE(base.ok()) << path;
    if (path.rfind("links-", 0) == 0) {
      // Contextual linkbases are outside an empty profile's site.
      EXPECT_FALSE(overlaid.ok()) << path;
      continue;
    }
    ASSERT_TRUE(overlaid.ok()) << path;
    // Not just equal: the SAME shared bytes — the splice detects the
    // no-op and hands back the base handle instead of a copy.
    EXPECT_EQ(base.body.get(), overlaid.body.get()) << path;
  }
}

// --- registration and lookup --------------------------------------------------

TEST(ProfileRegistration, ValidatesNamesAndFamilies) {
  auto engine = paper_engine();
  EXPECT_THROW(engine->register_profile({"", {}}), navsep::SemanticError);
  EXPECT_THROW(engine->register_profile({"a\nb", {}}), navsep::SemanticError);
  EXPECT_THROW(
      engine->register_profile({"ghost", {"ByGhost"}}), navsep::SemanticError);
  EXPECT_THROW(engine->register_profile({"twice", {"ByAuthor", "ByAuthor"}}),
               navsep::SemanticError);

  engine->register_profile({"tour", {"ByAuthor"}});
  ASSERT_EQ(engine->profiles().size(), 1u);

  // Re-registration replaces by name and the serving side follows.
  auto server = engine->open_concurrent();
  site::Response with_tours = server->get("guitar.html", "tour");
  engine->register_profile({"tour", {}});
  EXPECT_EQ(engine->profiles().size(), 1u);
  site::Response without = server->get("guitar.html", "tour");
  EXPECT_NE(*with_tours.body, *without.body);
  EXPECT_EQ(*without.body, *server->get("guitar.html").body);
}

TEST(ProfileRegistration, TangledModeRefusesFamilies) {
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .access(AccessStructureKind::Index, "picasso")
                    .tangled()
                    .serve();
  EXPECT_THROW(
      engine->register_profile({"tour", {"ByAuthor"}}), navsep::SemanticError);
  // An empty-family profile is fine and serves the tangled base bytes.
  engine->register_profile({"kiosk", {}});
  auto server = engine->open_concurrent();
  site::Response base = server->get("guitar.html");
  site::Response overlaid = server->get("guitar.html", "kiosk");
  ASSERT_TRUE(overlaid.ok());
  EXPECT_EQ(base.body.get(), overlaid.body.get());
}

TEST(ProfileRegistration, UnknownProfileThrowsAtServeTime) {
  auto engine = paper_engine();
  auto server = engine->open_concurrent();
  EXPECT_THROW((void)server->get("guitar.html", "nobody"),
               navsep::SemanticError);
  std::shared_ptr<const serve::SiteSnapshot> snap =
      engine->snapshots().current();
  EXPECT_THROW((void)snap->respond_as("nobody", "guitar.html"),
               navsep::SemanticError);
}

TEST(ProfileRegistration, EditUnknownFamilyThrows) {
  auto engine = paper_engine();
  EXPECT_THROW(engine->edit_context_family(
                   "ByGhost", [](hm::ContextFamily&) {}),
               navsep::ResolutionError);
}

// --- overlay cache economics --------------------------------------------------

TEST(OverlayCache, HitsAreSharedBytesAcrossRepeats) {
  auto engine = paper_engine();
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent();

  site::Response first = server->get("guitar.html", "tour");
  site::Response second = server->get("guitar.html", "tour");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.body.get(), second.body.get());
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.overlay.requests, 2u);
  EXPECT_EQ(s.overlay.resolves, 1u);
  EXPECT_EQ(s.overlay.hits, 1u);
  EXPECT_EQ(s.overlay.entries, 1u);
}

TEST(OverlayCache, FamilyEditRetiresOnlyTouchedSlices) {
  // The slice-precision property, end to end: ONE family edit retires
  // overlay entries only for pages whose (page, family) arc slice the
  // edit actually changed — pages of other contexts in the SAME family
  // keep hitting, as does every entry of a profile excluding the family.
  auto engine = synthetic_engine(4);
  engine->register_profile({"tour", {"ByAuthor"}});
  engine->register_profile({"curator", {"ByMovement"}});
  auto server = engine->open_concurrent();

  // Warm every page for both profiles, keeping the tour bodies so the
  // touched set can be computed from what actually changed.
  const std::vector<std::string> pages = html_pages(*engine);
  std::map<std::string, std::string> tour_before;
  for (const std::string& page : pages) {
    site::Response r = server->get(page, "tour");
    ASSERT_TRUE(r.ok()) << page;
    tour_before.emplace(page, *r.body);
    ASSERT_TRUE(server->get(page, "curator").ok()) << page;
  }
  const serve::ConcurrentServer::UnifiedStats warmed = server->unified_stats();
  EXPECT_EQ(warmed.overlay.resolves, 2 * pages.size());

  // One family edit touching ONE context (the first painter's tour):
  // zero base pages re-woven, one linkbase re-authored, a new epoch.
  nav::RebuildReport report = engine->edit_context_family(
      "ByAuthor", [](hm::ContextFamily& family) {
        std::vector<hm::NavigationalContext> contexts = family.contexts();
        std::vector<std::string> ids = contexts.front().node_ids();
        std::rotate(ids.begin(), ids.begin() + 1, ids.end());
        contexts.front() = hm::NavigationalContext(
            contexts.front().family(), contexts.front().name(),
            std::move(ids));
        family.replace_contexts(std::move(contexts));
      });
  EXPECT_EQ(report.pages_rewoven, 0u);
  EXPECT_EQ(report.linkbases_reauthored, 1u);

  // The profile excluding the family still hits every entry...
  for (const std::string& page : pages) {
    ASSERT_TRUE(server->get(page, "curator").ok());
  }
  serve::ConcurrentServer::UnifiedStats after_curator = server->unified_stats();
  EXPECT_EQ(after_curator.overlay.resolves, warmed.overlay.resolves);
  EXPECT_EQ(after_curator.overlay.hits,
            warmed.overlay.hits + pages.size());
  EXPECT_EQ(after_curator.overlay.stale_refills, 0u);

  // ...and the including profile re-renders EXACTLY the pages whose
  // served bytes changed (the edited context's members) — the other
  // painters' pages keep their entries across the edit.
  std::size_t touched = 0;
  for (const std::string& page : pages) {
    site::Response r = server->get(page, "tour");
    ASSERT_TRUE(r.ok()) << page;
    if (*r.body != tour_before.at(page)) ++touched;
  }
  ASSERT_GT(touched, 0u);
  ASSERT_LT(touched, pages.size())
      << "the edit touched every page — no untouched slice to keep alive";
  serve::ConcurrentServer::UnifiedStats after_tour = server->unified_stats();
  EXPECT_EQ(after_tour.overlay.stale_refills, touched);
  EXPECT_EQ(after_tour.overlay.resolves,
            after_curator.overlay.resolves + touched);
  EXPECT_EQ(after_tour.overlay.hits, after_curator.overlay.hits +
                                         (pages.size() - touched));
}

TEST(OverlayCache, UntouchedSliceEntriesSurviveByHash) {
  // The slice-hash mechanism directly: after a one-context family edit,
  // overlay_validity for an untouched page is same_content() with the
  // pre-edit token, while a touched page's is not — and only the edited
  // family's slot moved.
  auto engine = synthetic_engine(3);
  engine->register_profile({"tour", {"ByAuthor"}});
  const nav::Profile profile{"tour", {"ByAuthor"}};

  std::shared_ptr<const serve::SiteSnapshot> before =
      engine->snapshots().current();
  std::vector<std::string> first_context_ids;
  for (const hm::ContextFamily& family : engine->context_families()) {
    if (family.name() == "ByAuthor") {
      first_context_ids = family.contexts().front().node_ids();
    }
  }
  ASSERT_GE(first_context_ids.size(), 2u);
  const std::string touched_page =
      navsep::core::default_href_for(first_context_ids.front());
  // A page of another painter: its ByAuthor slice is a different context.
  std::string untouched_page;
  for (const std::string& page : html_pages(*engine)) {
    if (std::none_of(first_context_ids.begin(), first_context_ids.end(),
                     [&](const std::string& id) {
                       return navsep::core::default_href_for(id) == page;
                     })) {
      untouched_page = page;
      break;
    }
  }
  ASSERT_FALSE(untouched_page.empty());

  (void)engine->edit_context_family(
      "ByAuthor", [](hm::ContextFamily& family) {
        std::vector<hm::NavigationalContext> contexts = family.contexts();
        std::vector<std::string> ids = contexts.front().node_ids();
        std::reverse(ids.begin(), ids.end());
        contexts.front() = hm::NavigationalContext(
            contexts.front().family(), contexts.front().name(),
            std::move(ids));
        family.replace_contexts(std::move(contexts));
      });
  std::shared_ptr<const serve::SiteSnapshot> after =
      engine->snapshots().current();
  ASSERT_NE(before.get(), after.get());

  const serve::OverlayValidity untouched_before =
      before->overlay_validity(profile, untouched_page);
  const serve::OverlayValidity untouched_after =
      after->overlay_validity(profile, untouched_page);
  EXPECT_TRUE(untouched_after.same_content(untouched_before));

  const serve::OverlayValidity touched_before =
      before->overlay_validity(profile, touched_page);
  const serve::OverlayValidity touched_after =
      after->overlay_validity(profile, touched_page);
  EXPECT_FALSE(touched_after.same_content(touched_before));
  // Precisely the family slice moved: base bytes, profile token and the
  // structure slice are all unchanged by a family edit.
  EXPECT_EQ(touched_after.base_body.get(), touched_before.base_body.get());
  EXPECT_EQ(touched_after.profile_token, touched_before.profile_token);
  EXPECT_EQ(touched_after.structure_slice, touched_before.structure_slice);
  EXPECT_NE(touched_after.family_slices, touched_before.family_slices);
}

TEST(OverlayCache, ReplacingAProfileByNameInvalidatesItsEntries) {
  // Same name, different family list: the cached entry's profile token
  // no longer matches, so the old composition can never be served under
  // the new definition — even though every slice hash is unchanged.
  auto engine = synthetic_engine(3);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent();
  const std::string page =
      navsep::core::default_href_for(engine->structure().members().front().node_id);
  ASSERT_TRUE(server->get(page, "tour").ok());
  const serve::ConcurrentServer::UnifiedStats warmed = server->unified_stats();

  engine->register_profile({"tour", {"ByMovement"}});
  site::Response swapped = server->get(page, "tour");
  ASSERT_TRUE(swapped.ok());
  serve::ConcurrentServer::UnifiedStats after = server->unified_stats();
  EXPECT_EQ(after.overlay.hits, warmed.overlay.hits);
  EXPECT_EQ(after.overlay.stale_refills, warmed.overlay.stale_refills + 1);
  EXPECT_EQ(*swapped.body,
            profile_oracle(*engine, {"tour", {"ByMovement"}}).at(page));
}

TEST(OverlayCache, ProfileRegistrationAloneInvalidatesNothing) {
  auto engine = paper_engine();
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent();
  ASSERT_TRUE(server->get("guitar.html", "tour").ok());
  const serve::ConcurrentServer::UnifiedStats warmed = server->unified_stats();

  // Registering an unrelated profile publishes a new epoch, but the
  // tour entry's content handles are untouched: still a hit.
  engine->register_profile({"curator", {"ByMovement"}});
  ASSERT_TRUE(server->get("guitar.html", "tour").ok());
  serve::ConcurrentServer::UnifiedStats after = server->unified_stats();
  EXPECT_GT(after.epoch, warmed.epoch);
  EXPECT_EQ(after.overlay.resolves, warmed.overlay.resolves);
  EXPECT_EQ(after.overlay.hits, warmed.overlay.hits + 1);
}

TEST(OverlayCache, RetiredPageStops404sAndDropsItsEntry) {
  auto engine = synthetic_engine(3);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto server = engine->open_concurrent();

  const std::string victim_node =
      engine->structure().members().back().node_id;
  const std::string victim_path =
      navsep::core::default_href_for(victim_node);
  ASSERT_TRUE(server->get(victim_path, "tour").ok());

  std::vector<hm::Member> members = engine->structure().members();
  members.pop_back();
  (void)engine->set_access_structure(
      hm::make_access_structure(AccessStructureKind::Index,
                                engine->structure().name(), members));
  EXPECT_FALSE(server->get(victim_path, "tour").ok());
  EXPECT_FALSE(server->get(victim_path, "tour").ok());
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.overlay.not_found, 2u);
}

// --- the profile-mix workload -------------------------------------------------

TEST(ProfileMixWorkload, DrivesProfiledSessionsWithoutFailures) {
  auto engine = synthetic_engine(4);
  register_standard_profiles(*engine);
  serve::Workload workload(*engine);
  auto server = engine->open_concurrent();

  serve::WorkloadOptions options;
  options.threads = 4;
  options.steps_per_session = 64;
  options.behaviors = {serve::Behavior::ProfileMix};
  serve::WorkloadResult result = workload.run(*server, options);

  EXPECT_EQ(result.sessions, 4u);
  EXPECT_EQ(result.failures, 0u);
  ASSERT_EQ(result.by_behavior.size(), 1u);
  EXPECT_EQ(result.by_behavior.front().behavior,
            serve::Behavior::ProfileMix);
  EXPECT_EQ(serve::to_string(serve::Behavior::ProfileMix), "profile_mix");
  serve::ConcurrentServer::UnifiedStats s = server->unified_stats();
  EXPECT_EQ(s.overlay.requests, result.requests);
  EXPECT_GT(s.overlay.hits, 0u);  // repeat visits hit the overlay cache
  // Overlay entries are per (profile, page): bounded by both tables.
  EXPECT_GT(s.overlay.entries, 0u);

  // Without registered profiles the behavior degrades to base traffic.
  auto bare = synthetic_engine(2);
  serve::Workload bare_workload(*bare);
  serve::WorkloadResult bare_result = bare_workload.run(options);
  EXPECT_EQ(bare_result.failures, 0u);
  EXPECT_GT(bare_result.requests, 0u);
}

// --- the TSan stress: profiled readers vs a family-editing writer -------------

// Per-profile oracle bytes are captured single-threaded for two family
// states; readers then hammer profile-scoped GETs while the writer
// ping-pongs the family between the states (and occasionally rebuilds).
// Every body any reader sees must match state A or state B for its
// (profile, path) — late composition must never serve a torn mix.
TEST(OverlayStress, ProfiledReadersSeeOnlyOracleBytesUnderFamilyEdits) {
  auto engine = synthetic_engine(3);
  const std::vector<nav::Profile> profiles =
      register_standard_profiles(*engine);

  // Two absolute orderings of the first ByAuthor context, so the writer
  // can ping-pong between exactly two authored states.
  std::vector<std::string> ids_a;
  for (const hm::ContextFamily& family : engine->context_families()) {
    if (family.name() == "ByAuthor") ids_a = family.contexts().front().node_ids();
  }
  ASSERT_GE(ids_a.size(), 2u);
  std::vector<std::string> ids_b = ids_a;
  std::reverse(ids_b.begin(), ids_b.end());
  auto set_ids = [](std::vector<std::string> ids) {
    return [ids = std::move(ids)](hm::ContextFamily& family) {
      std::vector<hm::NavigationalContext> contexts = family.contexts();
      contexts.front() = hm::NavigationalContext(
          contexts.front().family(), contexts.front().name(), ids);
      family.replace_contexts(std::move(contexts));
    };
  };

  using ProfileBytes = std::map<std::string, std::map<std::string, std::string>>;
  auto capture = [&] {
    ProfileBytes out;
    for (const nav::Profile& profile : profiles) {
      out[profile.name] = profile_oracle(*engine, profile);
    }
    return out;
  };
  const ProfileBytes oracle_a = capture();  // state A: the derived order
  (void)engine->edit_context_family("ByAuthor", set_ids(ids_b));
  const ProfileBytes oracle_b = capture();
  (void)engine->edit_context_family("ByAuthor", set_ids(ids_a));

  auto server = engine->open_concurrent(8);
  std::vector<std::string> paths;
  for (const auto& [path, _] : oracle_a.begin()->second) {
    if (path.size() > 5 && path.rfind(".html") == path.size() - 5) {
      paths.push_back(path);
    }
  }

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> torn{0};
  constexpr std::size_t kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const nav::Profile& profile = profiles[r % profiles.size()];
      const auto& a = oracle_a.at(profile.name);
      const auto& b = oracle_b.at(profile.name);
      std::size_t i = r;
      while (!done.load(std::memory_order_acquire)) {
        const std::string& path = paths[i++ % paths.size()];
        site::Response resp = server->get(path, profile.name);
        if (!resp.ok()) continue;  // page retiring mid-flight: not here
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

  constexpr std::size_t kWrites = 32;
  for (std::size_t w = 0; w < kWrites; ++w) {
    (void)engine->edit_context_family(
        "ByAuthor", set_ids(w % 2 == 0 ? ids_b : ids_a));
    if (w % 8 == 7) engine->rebuild();
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);

  // Final convergence per profile: pin the family back to state A.
  (void)engine->edit_context_family("ByAuthor", set_ids(ids_a));
  for (const nav::Profile& profile : profiles) {
    for (const auto& [path, bytes] : oracle_a.at(profile.name)) {
      site::Response resp = server->get(path, profile.name);
      ASSERT_TRUE(resp.ok()) << profile.name << " " << path;
      EXPECT_EQ(*resp.body, bytes) << profile.name << " " << path;
    }
  }
}

// Invalidation precision under a concurrent editing writer (TSan-watched
// like the stress above): readers pinned to a profile EXCLUDING the
// edited family hammer profile-scoped GETs while the writer ping-pongs
// that family. Not one of their cached entries may retire — every body
// is the single pre-captured oracle, and overlay_stale_renders stays 0
// across every epoch the writer publishes.
TEST(OverlayStress, ExcludedProfileNeverLosesEntriesUnderFamilyEdits) {
  auto engine = synthetic_engine(3);
  engine->register_profile({"curator", {"ByMovement"}});
  const nav::Profile curator{"curator", {"ByMovement"}};
  const std::map<std::string, std::string> oracle =
      profile_oracle(*engine, curator);
  auto server = engine->open_concurrent(8);

  std::vector<std::string> paths = html_pages(*engine);
  // Warm every entry before the writer starts so the run measures
  // survival, not first-touch renders.
  for (const std::string& path : paths) {
    ASSERT_TRUE(server->get(path, "curator").ok()) << path;
  }
  const serve::ConcurrentServer::UnifiedStats warmed = server->unified_stats();
  EXPECT_EQ(warmed.overlay.resolves, paths.size());

  std::atomic<bool> done{false};
  std::atomic<std::size_t> torn{0};
  constexpr std::size_t kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = r;
      while (!done.load(std::memory_order_acquire)) {
        const std::string& path = paths[i++ % paths.size()];
        site::Response resp = server->get(path, "curator");
        if (!resp.ok() || *resp.body != oracle.at(path)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  auto flip = [](hm::ContextFamily& family) {
    std::vector<hm::NavigationalContext> contexts = family.contexts();
    std::vector<std::string> ids = contexts.front().node_ids();
    std::reverse(ids.begin(), ids.end());
    contexts.front() = hm::NavigationalContext(
        contexts.front().family(), contexts.front().name(), std::move(ids));
    family.replace_contexts(std::move(contexts));
  };
  constexpr std::size_t kWrites = 24;
  for (std::size_t w = 0; w < kWrites; ++w) {
    nav::RebuildReport report =
        engine->edit_context_family("ByAuthor", flip);
    EXPECT_EQ(report.pages_rewoven, 0u);
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  serve::ConcurrentServer::UnifiedStats after = server->unified_stats();
  EXPECT_GT(after.epoch, warmed.epoch);
  // Zero retirements: every read after warm-up was a hit on the entry
  // composed before the writer ever ran.
  EXPECT_EQ(after.overlay.stale_refills, 0u);
  EXPECT_EQ(after.overlay.resolves, warmed.overlay.resolves);
  EXPECT_EQ(after.overlay.evicted, 0u);
}

}  // namespace
