// Landmark synthesis: scorer determinism, pipeline integration, and the
// byte-identity contract.
//
// Contracts pinned here:
//   1. score_landmarks is a deterministic pure function: popularity and
//      centrality blend with stable tie-breaks, per-profile slices rank
//      independently (with global fallback), top_k truncates.
//   2. THE tentpole: enable_landmarks authors `links-landmarks[-<p>].xml`
//      through the normal build graph, so the incremental site — landmark
//      linkbases included — is byte-identical to the from-scratch
//      full-build oracle, and every profile's overlay serving matches
//      its profile oracle.
//   3. Landmarks are first-class graph citizens: re-feeding identical
//      traffic cuts off (no re-author), structural edits propagate into
//      re-ranking, disable retires every artifact, and the name/path
//      namespace is policed against families, routes and other
//      landmarks in both registration orders.
//   4. A refused call changes nothing: profiles, landmark families,
//      routes, artifacts and the epoch stay put, and the next valid
//      registration goes through.
//   5. Landmark artifacts ride snapshot replication unchanged.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "nav/landmarks.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "nav/route.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "serve/concurrent_server.hpp"
#include "site/virtual_site.hpp"

namespace {

using navsep::ResolutionError;
using navsep::SemanticError;
using navsep::hypermedia::AccessStructureKind;
namespace core = navsep::core;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace repl = navsep::repl;
namespace serve = navsep::serve;
namespace site = navsep::site;
using nav::LandmarkOptions;
using nav::LandmarkScore;
using navsep::testing::chunks_of;
using navsep::testing::expect_profile_matches_oracle;
using navsep::testing::expect_sites_identical;
using navsep::testing::full_build_oracle;

std::unique_ptr<nav::Engine> synthetic_engine(std::size_t paintings,
                                              std::uint64_t seed = 11) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 3,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 2,
                                                .seed = seed})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

/// Traffic with `views` hits on each (page, profile) tuple; "" profile
/// rows feed the global table only.
obs::TraceAggregate traffic_of(
    const std::vector<std::pair<std::string, std::string>>& hits) {
  obs::TraceAggregate traffic;
  for (const auto& [page, profile] : hits) {
    ++traffic.events;
    ++traffic.page_views[page];
    if (!profile.empty()) ++traffic.profile_page_views[{profile, page}];
  }
  return traffic;
}

/// The engine's current (post-attach) registration of profile `name`.
nav::Profile registered(const nav::Engine& in, const std::string& name) {
  for (const nav::Profile& p : in.profiles()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "profile not registered: " << name;
  return {};
}

// --- scorer semantics ---------------------------------------------------------

TEST(LandmarkScore, BlendsPopularityAndCentralityDeterministically) {
  // A tiny hand-built arc universe: hub has degree 4, spokes degree 1-2.
  std::vector<core::NavArc> arcs;
  auto arc = [&](const char* from, const char* to) {
    core::NavArc a;
    a.from = from;
    a.to = to;
    a.role = "nav:next";
    a.source = "links.xml";
    arcs.push_back(std::move(a));
  };
  arc("hub", "a");
  arc("hub", "b");
  arc("a", "hub");
  arc("c", "hub");
  arc("b", "c");

  // "c" is the traffic magnet; "hub" wins on centrality.
  obs::TraceAggregate traffic = traffic_of({{core::default_href_for("c"), ""},
                                            {core::default_href_for("c"), ""},
                                            {core::default_href_for("a"), ""}});

  LandmarkOptions popularity_only{.top_k = 2,
                                  .popularity_weight = 1.0,
                                  .centrality_weight = 0.0};
  std::vector<LandmarkScore> by_views =
      nav::score_landmarks(traffic, chunks_of(arcs), popularity_only);
  ASSERT_EQ(by_views.size(), 2u);
  EXPECT_EQ(by_views[0].node_id, "c");
  EXPECT_EQ(by_views[0].views, 2u);
  EXPECT_EQ(by_views[1].node_id, "a");

  LandmarkOptions centrality_only{.top_k = 2,
                                  .popularity_weight = 0.0,
                                  .centrality_weight = 1.0};
  std::vector<LandmarkScore> by_degree =
      nav::score_landmarks(traffic, chunks_of(arcs), centrality_only);
  ASSERT_EQ(by_degree.size(), 2u);
  EXPECT_EQ(by_degree[0].node_id, "hub");
  EXPECT_EQ(by_degree[0].degree, 4u);

  // Equal-score candidates order by node id: zero traffic, equal weights
  // on nodes of equal degree.
  obs::TraceAggregate no_traffic;
  std::vector<LandmarkScore> tied = nav::score_landmarks(
      no_traffic, chunks_of(arcs), LandmarkOptions{.top_k = 8});
  for (std::size_t i = 1; i < tied.size(); ++i) {
    if (tied[i - 1].score == tied[i].score) {
      EXPECT_LT(tied[i - 1].node_id, tied[i].node_id);
    }
  }
}

TEST(LandmarkScore, ProfileSlicesRankIndependentlyWithGlobalFallback) {
  std::vector<core::NavArc> arcs;
  core::NavArc a;
  a.from = "x";
  a.to = "y";
  a.role = "nav:next";
  a.source = "links.xml";
  arcs.push_back(a);

  obs::TraceAggregate traffic =
      traffic_of({{core::default_href_for("x"), "curators"},
                  {core::default_href_for("y"), ""},
                  {core::default_href_for("y"), ""}});

  LandmarkOptions opts{.top_k = 1, .popularity_weight = 1.0,
                       .centrality_weight = 0.0};
  // Global traffic crowns y; the curators' slice crowns x; a profile
  // with no recorded traffic falls back to the global ranking.
  EXPECT_EQ(nav::score_landmarks(traffic, chunks_of(arcs), opts).front().node_id, "y");
  EXPECT_EQ(
      nav::score_landmarks(traffic, chunks_of(arcs), opts, "curators").front().node_id,
      "x");
  EXPECT_EQ(
      nav::score_landmarks(traffic, chunks_of(arcs), opts, "visitors").front().node_id,
      "y");
}

TEST(LandmarkScore, TokenCoversNameOptionsAndTrafficTables) {
  obs::TraceAggregate traffic = traffic_of({{"a.html", ""}, {"b.html", "p"}});
  const LandmarkOptions opts{.top_k = 3};
  const std::uint64_t base = nav::landmark_token("landmarks", opts, traffic);
  EXPECT_EQ(base, nav::landmark_token("landmarks", opts, traffic));
  EXPECT_NE(base, nav::landmark_token("landmarks-p", opts, traffic));
  EXPECT_NE(base,
            nav::landmark_token("landmarks", LandmarkOptions{.top_k = 4},
                                traffic));
  obs::TraceAggregate more = traffic;
  ++more.page_views["a.html"];
  EXPECT_NE(base, nav::landmark_token("landmarks", opts, more));
}

// --- pipeline integration -----------------------------------------------------

/// Traffic naming real synthetic-site pages so ranking is meaningful.
obs::TraceAggregate engine_traffic(const nav::Engine& engine) {
  std::vector<std::string> pages = navsep::testing::html_pages(engine);
  std::sort(pages.begin(), pages.end());
  obs::TraceAggregate traffic;
  std::uint64_t weight = pages.size();
  for (const std::string& page : pages) {
    traffic.page_views[page] = weight;
    traffic.events += weight;
    // Alternate pages are hot for one of two audiences.
    const std::string profile = (weight % 2 == 0) ? "even" : "odd";
    traffic.profile_page_views[{profile, page}] = weight;
    --weight;
  }
  return traffic;
}

TEST(LandmarkPipeline, SiteIsByteIdenticalToFullBuildOracle) {
  auto engine = synthetic_engine(3);
  nav::Engine& in = *engine;
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 4});

  ASSERT_EQ(in.landmark_families(), std::vector<std::string>{"landmarks"});
  const std::string path = site::context_linkbase_path("landmarks");
  ASSERT_NE(engine->site().get(path), nullptr)
      << "landmark linkbase must be an authored artifact";
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // And again from scratch: rebuild() must reproduce the same bytes.
  in.rebuild();
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, ProfilesAutoAttachAndServeTheirOracleBytes) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  auto server = engine->open_concurrent();

  in.register_profile({"even", {"ByAuthor"}});
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 3, .per_profile = true});
  // Registration after enabling synthesizes that profile's family too.
  in.register_profile({"odd", {"ByMovement"}});

  const std::vector<std::string> families = in.landmark_families();
  EXPECT_EQ(families, (std::vector<std::string>{
                          "landmarks", "landmarks-even", "landmarks-odd"}));

  const nav::Profile even = registered(in, "even");
  const nav::Profile odd = registered(in, "odd");
  EXPECT_NE(std::find(even.families.begin(), even.families.end(),
                      "landmarks"),
            even.families.end());
  EXPECT_NE(std::find(even.families.begin(), even.families.end(),
                      "landmarks-even"),
            even.families.end());
  EXPECT_EQ(std::find(odd.families.begin(), odd.families.end(),
                      "landmarks-even"),
            odd.families.end());

  expect_profile_matches_oracle(*engine, *server, even);
  expect_profile_matches_oracle(*engine, *server, odd);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, IdenticalTrafficCutsOffAndEditsPropagate) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  const obs::TraceAggregate traffic = engine_traffic(*engine);

  (void)in.enable_landmarks(traffic, LandmarkOptions{.top_k = 3});
  const std::string path = site::context_linkbase_path("landmarks");
  const std::string before = *engine->site().get(path);

  // Same traffic, same options: the landmark token is unchanged, so the
  // program node cuts off and nothing re-authors.
  const nav::RebuildReport again =
      in.enable_landmarks(traffic, LandmarkOptions{.top_k = 3});
  EXPECT_EQ(again.linkbases_reauthored, 0u);
  EXPECT_EQ(again.pages_rewoven, 0u);

  // A structural edit changes the scorer's arc input: the landmark
  // linkbase re-ranks through its dependency edges, and the site still
  // matches the oracle (which re-ranks the same way).
  (void)in.retitle_node(engine->structure().members().front().node_id,
                        "Spotlight exhibit");
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // Hotter traffic on the last-ranked page re-orders the tour.
  obs::TraceAggregate skewed = traffic;
  std::vector<std::string> pages = navsep::testing::html_pages(*engine);
  std::sort(pages.begin(), pages.end());
  skewed.page_views[pages.back()] += 1000;
  const nav::RebuildReport reranked =
      in.enable_landmarks(skewed, LandmarkOptions{.top_k = 3});
  EXPECT_GE(reranked.linkbases_reauthored, 1u);
  EXPECT_NE(*engine->site().get(path), before);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, DisableRetiresArtifactsAndDetachesProfiles) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  in.register_profile({"even", {"ByAuthor"}});
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 2, .per_profile = true});
  const std::string base_path = site::context_linkbase_path("landmarks");
  const std::string even_path = site::context_linkbase_path("landmarks-even");
  ASSERT_NE(engine->site().get(base_path), nullptr);
  ASSERT_NE(engine->site().get(even_path), nullptr);

  (void)in.disable_landmarks();
  EXPECT_TRUE(in.landmark_families().empty());
  EXPECT_EQ(engine->site().get(base_path), nullptr);
  EXPECT_EQ(engine->site().get(even_path), nullptr);
  EXPECT_EQ(registered(in, "even").families,
            (std::vector<std::string>{"ByAuthor"}));
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // Idempotent: a second disable is a no-op, not an error.
  const nav::RebuildReport noop = in.disable_landmarks();
  EXPECT_EQ(noop.nodes_rebuilt, 0u);
}

// --- refused calls change nothing ---------------------------------------------

/// Everything a refused call must leave as it was.
struct EngineState {
  std::vector<nav::Profile> profiles;
  std::vector<std::string> landmarks;
  std::vector<nav::RouteProgram> routes;
  std::vector<std::string> paths;
  std::uint64_t epoch = 0;
};

EngineState state_of(const nav::Engine& engine) {
  return {engine.profiles(), engine.landmark_families(), engine.routes(),
          engine.site().paths(), engine.snapshots().epoch()};
}

void expect_unchanged(const EngineState& before, const nav::Engine& engine) {
  const EngineState after = state_of(engine);
  EXPECT_TRUE(after.profiles == before.profiles) << "profiles moved";
  EXPECT_EQ(after.landmarks, before.landmarks);
  EXPECT_TRUE(after.routes == before.routes) << "routes moved";
  EXPECT_EQ(after.paths, before.paths);
  EXPECT_EQ(after.epoch, before.epoch);
}

TEST(LandmarkPipeline, RefusedEnableLeavesLandmarksOff) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  (void)in.register_route({"landmarks", "next*", nav::RouteCompile::Aot});
  const EngineState before = state_of(*engine);
  EXPECT_THROW(
      (void)in.enable_landmarks(engine_traffic(*engine), LandmarkOptions{}),
      SemanticError);
  expect_unchanged(before, *engine);

  // Once the clash is gone, landmarks stay off until enabled again: a
  // new profile gets no landmark family and none is authored.
  (void)in.remove_route("landmarks");
  in.register_profile({"p", {"ByAuthor"}});
  EXPECT_EQ(registered(in, "p").families,
            (std::vector<std::string>{"ByAuthor"}));
  EXPECT_TRUE(in.landmark_families().empty());
  EXPECT_EQ(engine->site().get(site::context_linkbase_path("landmarks")),
            nullptr);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  (void)in.enable_landmarks(engine_traffic(*engine), LandmarkOptions{});
  EXPECT_EQ(in.landmark_families(), std::vector<std::string>{"landmarks"});
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, RefusedProfileDoesNotWedgeTheEngine) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.per_profile = true});
  const EngineState before = state_of(*engine);
  // "landmarks-a:b" could not tag its arcs '<family>:landmark'.
  EXPECT_THROW(in.register_profile({"a:b", {}}), SemanticError);
  expect_unchanged(before, *engine);

  in.register_profile({"c", {}});
  EXPECT_EQ(in.snapshots().epoch(), before.epoch + 1);
  EXPECT_EQ(in.landmark_families(),
            (std::vector<std::string>{"landmarks", "landmarks-c"}));
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, ProfileWhoseLandmarkARouteOwnsIsRefused) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  (void)in.register_route({"landmarks-q", "next*", nav::RouteCompile::Lazy});
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.per_profile = true});
  const EngineState before = state_of(*engine);
  EXPECT_THROW(in.register_profile({"q", {}}), SemanticError);
  expect_unchanged(before, *engine);

  in.register_profile({"r", {"landmarks-q"}});
  EXPECT_EQ(in.snapshots().epoch(), before.epoch + 1);
  EXPECT_EQ(in.landmark_families(),
            (std::vector<std::string>{"landmarks", "landmarks-r"}));
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, ProfilesDifferingOnlyInCaseCannotShareAnArtifact) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  auto server = engine->open_concurrent();
  in.register_profile({"Tour", {"ByAuthor"}});
  in.register_profile({"tour", {"ByMovement"}});
  // Both would author links-landmarks-tour.xml.
  const EngineState before = state_of(*engine);
  EXPECT_THROW((void)in.enable_landmarks(engine_traffic(*engine),
                                         LandmarkOptions{.per_profile = true}),
               SemanticError);
  expect_unchanged(before, *engine);

  // Without per-profile families both profiles share the base one.
  (void)in.enable_landmarks(engine_traffic(*engine), LandmarkOptions{});
  EXPECT_EQ(in.landmark_families(), std::vector<std::string>{"landmarks"});
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
  expect_profile_matches_oracle(*engine, *server, registered(in, "Tour"));
  expect_profile_matches_oracle(*engine, *server, registered(in, "tour"));
}

// --- the shared namespace, as a table -----------------------------------------

/// Everything that claims a context-family name and with it the artifact
/// path links-<lowercased name>.xml. A per-profile landmark claims
/// "landmarks-<profile>" either by enabling per-profile synthesis over a
/// registered profile or by registering a profile while it is on.
enum class Claimant {
  Family,
  AotRoute,
  LazyRoute,
  BaseLandmark,
  LandmarkByEnable,
  LandmarkByProfile,
};

const char* to_string(Claimant c) {
  switch (c) {
    case Claimant::Family: return "family";
    case Claimant::AotRoute: return "aot-route";
    case Claimant::LazyRoute: return "lazy-route";
    case Claimant::BaseLandmark: return "base-landmark";
    case Claimant::LandmarkByEnable: return "profile-landmark(enable)";
    case Claimant::LandmarkByProfile: return "profile-landmark(profile)";
  }
  return "?";
}

/// Claimants holding one name the same way: re-claiming it replaces
/// (a route re-registration, a profile re-registration, a re-enable).
int owner_of(Claimant c) {
  switch (c) {
    case Claimant::AotRoute:
    case Claimant::LazyRoute: return 1;
    case Claimant::BaseLandmark: return 2;
    case Claimant::LandmarkByEnable:
    case Claimant::LandmarkByProfile: return 3;
    case Claimant::Family: break;
  }
  return 0;
}

/// The one name a claimant can hold, or nullopt when any name works.
std::optional<std::string> fixed_name(Claimant c) {
  switch (c) {
    case Claimant::Family: return "ByAuthor";  // fixed at serve()
    case Claimant::BaseLandmark: return "landmarks";
    case Claimant::LandmarkByEnable:
    case Claimant::LandmarkByProfile: return "landmarks-tour";
    default: return std::nullopt;
  }
}

bool name_is_free(Claimant c) {
  return c == Claimant::AotRoute || c == Claimant::LazyRoute ||
         c == Claimant::LandmarkByEnable || c == Claimant::LandmarkByProfile;
}

/// Run `who`'s set-up calls for family name `name` and return the one
/// call that claims it.
std::function<void()> stage_claim(nav::Engine& engine, Claimant who,
                                  const std::string& name) {
  nav::Engine& in = engine;
  const obs::TraceAggregate traffic = engine_traffic(engine);
  // A per-profile landmark's profile: the name after "landmarks-".
  const std::string profile =
      who == Claimant::LandmarkByEnable || who == Claimant::LandmarkByProfile
          ? name.substr(std::string_view("landmarks-").size())
          : std::string();
  switch (who) {
    case Claimant::Family:
      return [] {};
    case Claimant::AotRoute:
    case Claimant::LazyRoute: {
      const nav::RouteCompile compile = who == Claimant::AotRoute
                                            ? nav::RouteCompile::Aot
                                            : nav::RouteCompile::Lazy;
      return [&in, name, compile] {
        (void)in.register_route({name, "next*", compile});
      };
    }
    case Claimant::BaseLandmark:
      return [&in, traffic] {
        (void)in.enable_landmarks(traffic, LandmarkOptions{});
      };
    case Claimant::LandmarkByEnable:
      (void)in.disable_landmarks();
      in.register_profile({profile, {}});
      return [&in, traffic] {
        (void)in.enable_landmarks(traffic,
                                  LandmarkOptions{.per_profile = true});
      };
    case Claimant::LandmarkByProfile:
      (void)in.enable_landmarks(traffic, LandmarkOptions{.per_profile = true});
      return [&in, profile] { in.register_profile({profile, {}}); };
  }
  return [] {};
}

TEST(LandmarkPipeline, NamespaceIsPolicedBothWays) {
  const std::vector<Claimant> claimants{
      Claimant::Family,       Claimant::AotRoute,
      Claimant::LazyRoute,    Claimant::BaseLandmark,
      Claimant::LandmarkByEnable, Claimant::LandmarkByProfile};
  std::size_t refused = 0;
  std::size_t accepted = 0;
  for (Claimant first : claimants) {
    for (Claimant second : claimants) {
      // Context families exist from serve() on, so one only comes first.
      if (second == Claimant::Family) continue;
      const std::optional<std::string> a = fixed_name(first);
      const std::optional<std::string> b = fixed_name(second);
      if (a && b && *a != *b) continue;  // these can never meet
      const std::string shared = a ? *a : b ? *b : "walk";
      for (const bool differ_in_case : {false, true}) {
        std::string first_name = shared;
        std::string second_name = shared;
        if (differ_in_case) {
          // Vary whichever side may take any name; two fixed names
          // (base landmark twice) have no case variant.
          if (!name_is_free(second) && !name_is_free(first)) continue;
          std::string& varied = name_is_free(second) ? second_name
                                                     : first_name;
          varied.back() = static_cast<char>(
              std::toupper(static_cast<unsigned char>(varied.back())));
        }
        const bool expect_refusal =
            differ_in_case || owner_of(first) != owner_of(second);
        SCOPED_TRACE(std::string(to_string(first)) + " '" + first_name +
                     "' then " + to_string(second) + " '" + second_name + "'");

        auto engine = synthetic_engine(2);
        nav::Engine& in = *engine;
        stage_claim(*engine, first, first_name)();
        const std::function<void()> claim =
            stage_claim(*engine, second, second_name);
        const EngineState before = state_of(*engine);
        if (expect_refusal) {
          EXPECT_THROW(claim(), SemanticError);
          expect_unchanged(before, *engine);
          // The refusal wedged nothing: a valid registration publishes.
          (void)in.register_route({"fresh", "next*", nav::RouteCompile::Aot});
          EXPECT_EQ(in.snapshots().epoch(), before.epoch + 1);
          ++refused;
        } else {
          EXPECT_NO_THROW(claim());
          ++accepted;
        }
        expect_sites_identical(engine->site(), full_build_oracle(*engine));
      }
    }
  }
  // Every pair that can share a name, both orders, both spellings.
  EXPECT_EQ(refused, 36u);
  EXPECT_EQ(accepted, 9u);

  // Unknown-name accessors are diagnosable.
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  EXPECT_THROW((void)in.landmark_family("landmarks"), ResolutionError);
  EXPECT_THROW((void)in.landmark_picks("landmarks"), ResolutionError);
}

TEST(LandmarkPipeline, LazyRoutesExpandOverAuthoredArcsOnlyLikeAotRoutes) {
  // Landmark tours carry next/prev arcs too. Routes range over the
  // authored navigation only, so neither compilation may see them: the
  // lazy serve-time expansion must equal the AOT one with landmarks on.
  auto engine = synthetic_engine(3);
  nav::Engine& in = *engine;
  auto server = engine->open_concurrent();
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 4});
  for (const std::string& expression :
       {"(next | prev)*", "@landmarks", "index-entry / next*"}) {
    SCOPED_TRACE(expression);
    for (const nav::RouteCompile compile :
         {nav::RouteCompile::Aot, nav::RouteCompile::Lazy}) {
      (void)in.register_route({"walk", expression, compile});
      in.register_profile({"walker", {"walk"}});
      expect_profile_matches_oracle(*engine, *server,
                                    registered(in, "walker"));
    }
  }
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, BatchedEnableCoalescesIntoOneEpoch) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  const std::uint64_t before = in.snapshots().epoch();

  in.begin_batch();
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 3});
  (void)in.retitle_node(engine->structure().members().front().node_id,
                        "Batched spotlight");
  const nav::RebuildReport report = in.commit_batch();
  EXPECT_EQ(report.epochs_published, 1u);
  EXPECT_EQ(report.edits_coalesced, 2u);
  EXPECT_EQ(in.snapshots().epoch(), before + 1);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, LandmarkArtifactsRideReplication) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  auto publisher = engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));
  repl::Replica replica = repl::Replica::connect(publisher->endpoint());
  replica.start();

  in.register_profile({"even", {"ByAuthor"}});
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 3, .per_profile = true});

  const std::uint64_t target = in.snapshots().epoch();
  ASSERT_TRUE(replica.wait_for_epoch(target, std::chrono::seconds(30)))
      << replica.error();

  // A server over the replica's store serves the origin's oracle bytes,
  // landmark overlays included — nothing landmark-specific crossed the
  // wire beyond ordinary linkbase artifacts.
  serve::ConcurrentServer server(replica.store(), 2);
  const nav::Profile even = registered(in, "even");
  const std::map<std::string, std::string> oracle =
      navsep::testing::profile_oracle(*engine, even);
  for (const auto& [path, bytes] : oracle) {
    site::Response r = server.get(path, even.name);
    ASSERT_TRUE(r.ok()) << path;
    EXPECT_EQ(*r.body, bytes) << path;
  }
}

}  // namespace
