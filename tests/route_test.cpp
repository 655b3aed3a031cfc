// Declarative route programs: parser, printer, and the lazy-vs-AOT
// differential harness.
//
// Three contracts pinned here:
//   1. print_route is a canonical form — parse → print → parse is a
//      fixpoint, for hand-written and randomized expressions alike.
//   2. Compile errors are diagnosable: ParseError names the offending
//      token; registration-time SemanticErrors name the clash.
//   3. THE tentpole: for every registered route program, the lazily
//      synthesized serve-time overlay and the ahead-of-time authored
//      linkbase serve byte-identical responses — both equal to the
//      from-scratch full-build oracle — across ≥30 randomized programs,
//      family edits, batched mutations, rebuild(), and a publisher →
//      replica pair.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "nav/route.hpp"
#include "oracle.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/snapshot.hpp"
#include "site/virtual_site.hpp"

namespace {

using navsep::ParseError;
using navsep::ResolutionError;
using navsep::SemanticError;
using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace repl = navsep::repl;
namespace serve = navsep::serve;
namespace site = navsep::site;
using nav::RouteCompile;
using nav::RouteExpr;
using nav::RouteProgram;
using navsep::testing::expect_profile_matches_oracle;
using navsep::testing::expect_sites_identical;
using navsep::testing::full_build_oracle;

std::unique_ptr<nav::Engine> paper_engine() {
  return nav::SitePipeline()
      .paper_museum()
      .access(AccessStructureKind::IndexedGuidedTour, "picasso")
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

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

/// Deterministic xorshift64* — the same self-contained generator the
/// stress suite uses; no <random> distribution drift across libstdc++s.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  std::uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// --- 1. parse → print → parse fixpoint ----------------------------------------

TEST(RouteParse, CanonicalFormsOfHandWrittenExpressions) {
  const std::pair<const char*, const char*> cases[] = {
      {"next", "next"},
      {"  next  ", "next"},
      {"next/prev", "next / prev"},
      {"a|b/c", "a | b / c"},
      {"(a|b)/c", "(a | b) / c"},
      {"a*", "a*"},
      {"(a/b)*", "(a / b)*"},
      {"(a)", "a"},
      {"((a))", "a"},
      {"@ByAuthor/next", "@ByAuthor / next"},
      {"@ByAuthor*|prev", "@ByAuthor* | prev"},
      {"(a|b)*/c|d", "(a | b)* / c | d"},
      {"index-entry/next*", "index-entry / next*"},
      {"a/(b|c)/d", "a / (b | c) / d"},
  };
  for (const auto& [source, canonical] : cases) {
    const RouteExpr parsed = nav::parse_route(source);
    EXPECT_EQ(nav::print_route(parsed), canonical) << source;
    // Fixpoint both ways: re-parsing the canonical form yields the same
    // AST, and re-printing that yields the same text.
    const RouteExpr reparsed = nav::parse_route(canonical);
    EXPECT_TRUE(parsed == reparsed) << source;
    EXPECT_EQ(nav::print_route(reparsed), canonical) << source;
  }
}

RouteExpr random_expr(Rng& rng, int depth) {
  static const std::vector<std::string> roles = {
      "next", "prev", "up", "index-entry", "first", "menu-entry"};
  static const std::vector<std::string> families = {"ByAuthor", "ByMovement"};
  const std::size_t pick = depth >= 3 ? rng.below(2) : rng.below(5);
  RouteExpr e;
  switch (pick) {
    case 0:
      e.kind = RouteExpr::Kind::Role;
      e.name = roles[rng.below(roles.size())];
      return e;
    case 1:
      e.kind = RouteExpr::Kind::Family;
      e.name = families[rng.below(families.size())];
      return e;
    case 2:
    case 3: {
      e.kind = pick == 2 ? RouteExpr::Kind::Seq : RouteExpr::Kind::Alt;
      const std::size_t n = 2 + rng.below(2);
      for (std::size_t i = 0; i < n; ++i) {
        RouteExpr child = random_expr(rng, depth + 1);
        // Seq/Alt children of the same kind would flatten under
        // re-parse; nest them behind a Star or drop to an atom so the
        // generated AST is already in canonical shape.
        if (child.kind == e.kind) {
          RouteExpr starred;
          starred.kind = RouteExpr::Kind::Star;
          starred.children.push_back(std::move(child));
          child = std::move(starred);
        }
        e.children.push_back(std::move(child));
      }
      return e;
    }
    default: {
      e.kind = RouteExpr::Kind::Star;
      RouteExpr child = random_expr(rng, depth + 1);
      if (child.kind == RouteExpr::Kind::Star) {
        return child;  // e** has no canonical spelling; collapse
      }
      e.children.push_back(std::move(child));
      return e;
    }
  }
}

TEST(RouteParse, RandomizedPrintParseFixpoint) {
  Rng rng(20260808);
  for (int i = 0; i < 500; ++i) {
    const RouteExpr expr = random_expr(rng, 0);
    const std::string printed = nav::print_route(expr);
    RouteExpr reparsed;
    ASSERT_NO_THROW(reparsed = nav::parse_route(printed)) << printed;
    EXPECT_TRUE(expr == reparsed) << printed;
    EXPECT_EQ(nav::print_route(reparsed), printed) << printed;
  }
}

// --- 2. compile errors name the offending token -------------------------------

TEST(RouteParse, ErrorsNameTheOffendingToken) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "unexpected token"},
      {"a b", "unexpected token 'b'"},
      {"a**", "unexpected token '*' (already starred)"},
      {"(a | b", "expected ')'"},
      {"a | b)", "unexpected token ')'"},
      {"a /", "unexpected token"},
      {"| a", "unexpected token '|'"},
      {"@", "expected a family name after '@'"},
      {"a / @ / b", "expected a family name after '@'"},
      {"a $ b", "unexpected character '$'"},
  };
  for (const auto& [source, needle] : cases) {
    try {
      (void)nav::parse_route(source);
      FAIL() << "parse_route(\"" << source << "\") did not throw";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "\"" << source << "\" → " << e.what();
    }
  }
}

TEST(RouteRegister, RegistrationErrorContracts) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;

  // Malformed expression: ParseError before any state moves.
  EXPECT_THROW((void)in.register_route({"broken", "a**", RouteCompile::Aot}),
               ParseError);
  EXPECT_TRUE(in.routes().empty());

  // Names are context-family names: non-empty, no ':' / newline.
  EXPECT_THROW((void)in.register_route({"", "next", RouteCompile::Aot}),
               SemanticError);
  EXPECT_THROW((void)in.register_route({"a:b", "next", RouteCompile::Aot}),
               SemanticError);
  EXPECT_THROW((void)in.register_route({"a\nb", "next", RouteCompile::Aot}),
               SemanticError);

  // Routes and families share the profile namespace — and the site path
  // namespace (names map to paths case-insensitively).
  EXPECT_THROW(
      (void)in.register_route({"ByAuthor", "next", RouteCompile::Aot}),
      SemanticError);
  EXPECT_THROW(
      (void)in.register_route({"byauthor", "next", RouteCompile::Aot}),
      SemanticError);

  // Unknown names on the edit/remove/query side.
  EXPECT_THROW((void)in.edit_route("ghost", "next"), ResolutionError);
  EXPECT_THROW((void)in.remove_route("ghost"), ResolutionError);
  EXPECT_THROW((void)in.route_family("ghost"), ResolutionError);

  // The stored expression is the canonical spelling.
  (void)in.register_route({"r", "  next /(prev|up)  ", RouteCompile::Aot});
  ASSERT_EQ(in.routes().size(), 1u);
  EXPECT_EQ(in.routes().front().expression, "next / (prev | up)");
}

TEST(RouteRegister, RemovalDetachesTheRouteFromEveryProfile) {
  // Removing a route drops its name from every profile that listed it,
  // in the removal's own epoch, the way disable_landmarks detaches
  // landmark families: no profile may keep naming a family that is gone.
  for (const RouteCompile compile : {RouteCompile::Aot, RouteCompile::Lazy}) {
    SCOPED_TRACE(compile == RouteCompile::Aot ? "Aot" : "Lazy");
    auto engine = paper_engine();
    auto server = engine->open_concurrent();
    (void)engine->register_route({"authors", "@ByAuthor", compile});
    engine->register_profile({"routed", {"authors"}});
    engine->register_profile({"mixed", {"ByMovement", "authors"}});
    const std::uint64_t epoch = engine->snapshots().epoch();

    (void)engine->remove_route("authors");
    EXPECT_EQ(engine->snapshots().epoch(), epoch + 1);
    const std::vector<nav::Profile> profiles = engine->profiles();
    ASSERT_EQ(profiles.size(), 2u);
    for (const nav::Profile& profile : profiles) {
      EXPECT_EQ(std::count(profile.families.begin(), profile.families.end(),
                           "authors"),
                0)
          << profile.name;
    }
    EXPECT_EQ(engine->snapshots().current()->profiles(), profiles);

    // Every listed profile re-registers as it stands and serves its
    // oracle bytes.
    for (const nav::Profile& profile : profiles) {
      EXPECT_NO_THROW(engine->register_profile(profile)) << profile.name;
      expect_profile_matches_oracle(*engine, *server, profile);
    }

    // A later route of the same name is a new family: no profile picks
    // it up unasked.
    (void)engine->register_route({"authors", "@ByAuthor", compile});
    EXPECT_EQ(engine->profiles(), profiles);

    // Batched, the detach is visible at once and ships in the batch's
    // one epoch.
    engine->register_profile({"routed", {"authors"}});
    engine->begin_batch();
    (void)engine->remove_route("authors");
    EXPECT_TRUE(engine->profiles().front().families.empty());
    EXPECT_EQ(engine->commit_batch().epochs_published, 1u);
    EXPECT_EQ(engine->snapshots().current()->profiles(), engine->profiles());
  }
}

// --- 3. the lazy-vs-AOT differential harness ----------------------------------

/// Register `program`, point a fresh profile at it, and assert the
/// profile serves byte-identically to the full-build oracle on EVERY
/// path. profile_oracle expands routes itself, so one oracle is the
/// common truth for both compile modes.
void expect_route_matches_oracle(nav::Engine& engine,
                                 serve::ConcurrentServer& server,
                                 const RouteProgram& program) {
  (void)engine.register_route(program);
  nav::Profile profile{"profile-" + program.name, {program.name}};
  engine.register_profile(profile);
  expect_profile_matches_oracle(engine, server, profile);
}

TEST(RouteDifferential, RandomizedProgramsLazyEqualsAotEqualsOracle) {
  auto engine = synthetic_engine(3);
  auto server = engine->open_concurrent();
  Rng rng(0x9e3779b9u);

  // ≥30 generated programs, each registered AOT first, then flipped to
  // Lazy under the same name. The oracle is compile-mode-blind, so AOT
  // bytes == oracle bytes == Lazy bytes path-by-path — the differential
  // identity — while the flip also exercises artifact retirement.
  for (int i = 0; i < 30; ++i) {
    const std::string name = "route" + std::to_string(i);
    const std::string expr = nav::print_route(random_expr(rng, 0));
    expect_route_matches_oracle(
        *engine, *server, RouteProgram{name, expr, RouteCompile::Aot});
    expect_route_matches_oracle(
        *engine, *server, RouteProgram{name, expr, RouteCompile::Lazy});
    if (HasFatalFailure()) {
      FAIL() << "program " << i << ": " << expr;
    }
    // Keep the registered set small so each oracle build stays cheap.
    (void)engine->remove_route(name);
  }
}

TEST(RouteDifferential, SiteIdentityWithAotRoutesRegistered) {
  auto engine = paper_engine();
  (void)engine->register_route(
      {"walk", "index-entry / next*", RouteCompile::Aot});
  (void)engine->register_route(
      {"authors", "@ByAuthor | up", RouteCompile::Aot});
  // The incremental site (route linkbases included) equals a full
  // single-threaded build that authors the same route expansions.
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(RouteDifferential, HoldsAcrossFamilyEditsAndBatchesAndRebuild) {
  auto engine = synthetic_engine(3);
  nav::Engine& in = *engine;
  auto server = engine->open_concurrent();

  (void)in.register_route(
      {"structural", "index-entry / next*", RouteCompile::Aot});
  (void)in.register_route(
      {"authors", "@ByAuthor / next", RouteCompile::Lazy});
  const nav::Profile ps{"ps", {"structural"}};
  const nav::Profile pa{"pa", {"authors", "ByMovement"}};
  in.register_profile(ps);
  in.register_profile(pa);
  expect_profile_matches_oracle(*engine, *server, ps);
  expect_profile_matches_oracle(*engine, *server, pa);

  // A family edit changes @ByAuthor's expansion input: the AOT route
  // re-authors through the build graph, the lazy route re-expands in
  // the next snapshot — both must track the oracle.
  (void)in.edit_context_family("ByAuthor", [](hm::ContextFamily& family) {
    std::vector<hm::NavigationalContext> contexts = family.contexts();
    ASSERT_FALSE(contexts.empty());
    std::vector<std::string> ids = contexts.front().node_ids();
    std::reverse(ids.begin(), ids.end());
    contexts.front() = hm::NavigationalContext(contexts.front().family(),
                                               contexts.front().name(),
                                               std::move(ids));
    family.replace_contexts(std::move(contexts));
  });
  expect_profile_matches_oracle(*engine, *server, ps);
  expect_profile_matches_oracle(*engine, *server, pa);

  // Batched burst: route edits + a retitle coalesce into one epoch.
  in.begin_batch();
  (void)in.edit_route("structural", "index-entry / (next | prev)*");
  (void)in.register_route({"moves", "@ByMovement*", RouteCompile::Lazy});
  (void)in.retitle_node(engine->structure().members().front().node_id,
                        "Routed (v2)");
  const nav::RebuildReport batched = in.commit_batch();
  EXPECT_EQ(batched.epochs_published, 1u);
  in.register_profile({"pm", {"moves"}});
  expect_profile_matches_oracle(*engine, *server, ps);
  expect_profile_matches_oracle(*engine, *server, pa);
  expect_profile_matches_oracle(*engine, *server, {"pm", {"moves"}});

  // Blanket rebuild() must reproduce the same bytes from scratch.
  engine->rebuild();
  expect_profile_matches_oracle(*engine, *server, ps);
  expect_profile_matches_oracle(*engine, *server, pa);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(RouteDifferential, FamilyEditRetiresOnlyRoutesWhoseExpansionChanged) {
  auto engine = synthetic_engine(3);
  nav::Engine& in = *engine;
  auto server = engine->open_concurrent();

  // One route over structure roles only (edit-invariant expansion), one
  // over @ByAuthor (edit-sensitive).
  (void)in.register_route(
      {"structural", "index-entry / next*", RouteCompile::Lazy});
  (void)in.register_route({"authors", "@ByAuthor", RouteCompile::Lazy});
  in.register_profile({"ps", {"structural"}});
  in.register_profile({"pa", {"authors"}});

  const std::vector<std::string> pages = navsep::testing::html_pages(*engine);
  auto warm = [&] {
    for (const std::string& page : pages) {
      ASSERT_TRUE(server->get(page, "ps").ok()) << page;
      ASSERT_TRUE(server->get(page, "pa").ok()) << page;
    }
  };
  warm();
  const serve::ConcurrentServer::UnifiedStats warmed = server->unified_stats();
  warm();
  // Second pass is all overlay hits: both routes' entries are cached.
  EXPECT_EQ(server->unified_stats().overlay.hits,
            warmed.overlay.hits + 2 * pages.size());

  // A pure reorder of a tour leaves every route expansion SET intact
  // (expansions are sorted unique node sets): no route entry may retire.
  (void)in.edit_context_family("ByAuthor", [](hm::ContextFamily& family) {
    std::vector<hm::NavigationalContext> contexts = family.contexts();
    ASSERT_FALSE(contexts.empty());
    std::vector<std::string> ids = contexts.front().node_ids();
    ASSERT_GE(ids.size(), 2u);
    std::rotate(ids.begin(), ids.begin() + 1, ids.end());
    contexts.front() = hm::NavigationalContext(contexts.front().family(),
                                               contexts.front().name(),
                                               std::move(ids));
    family.replace_contexts(std::move(contexts));
  });
  const serve::ConcurrentServer::UnifiedStats reordered =
      server->unified_stats();
  warm();
  EXPECT_EQ(server->unified_stats().overlay.hits,
            reordered.overlay.hits + 2 * pages.size());

  // Dropping a member from the first tour shrinks @ByAuthor's target
  // set: 'authors' re-expands (its pages recompose) while 'structural'
  // — index-entry already reaches every painting — keeps a byte-
  // identical expansion and every cached entry: the route-token +
  // slice-hash validity at work.
  (void)in.edit_context_family("ByAuthor", [](hm::ContextFamily& family) {
    std::vector<hm::NavigationalContext> contexts = family.contexts();
    ASSERT_FALSE(contexts.empty());
    std::vector<std::string> ids = contexts.front().node_ids();
    ASSERT_GE(ids.size(), 3u);
    ids.pop_back();
    contexts.front() = hm::NavigationalContext(contexts.front().family(),
                                               contexts.front().name(),
                                               std::move(ids));
    family.replace_contexts(std::move(contexts));
  });
  const serve::ConcurrentServer::UnifiedStats before = server->unified_stats();
  warm();
  const serve::ConcurrentServer::UnifiedStats after = server->unified_stats();
  // Retirement is slice-precise, not whole-route: only the 'authors'
  // pages whose expanded arc slice actually moved recompose (the pages
  // around the dropped member); every 'structural' page and every
  // untouched 'authors' page is a hit.
  const std::size_t renders = after.overlay.resolves - before.overlay.resolves;
  EXPECT_GT(renders, 0u);
  EXPECT_LT(renders, pages.size());
  EXPECT_EQ(after.overlay.hits - before.overlay.hits,
            2 * pages.size() - renders);
  expect_profile_matches_oracle(*engine, *server, {"ps", {"structural"}});
  expect_profile_matches_oracle(*engine, *server, {"pa", {"authors"}});
}

TEST(RouteDifferential, LazyRouteLinkbaseArtifactIsServedAndTracksEdits) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  auto server = engine->open_concurrent();

  (void)in.register_route({"authors", "@ByAuthor", RouteCompile::Aot});
  in.register_profile({"pa", {"authors"}});
  in.register_profile({"empty", {}});
  const std::string path = site::context_linkbase_path("authors");
  const std::string* aot = engine->site().get(path);
  ASSERT_NE(aot, nullptr);
  const std::string aot_bytes = *aot;

  // Flip to Lazy: the authored artifact leaves the site, yet the same
  // path must keep serving the same bytes — synthesized in-snapshot.
  (void)in.register_route({"authors", "@ByAuthor", RouteCompile::Lazy});
  EXPECT_EQ(engine->site().get(path), nullptr);
  site::Response r = server->get(path, "pa");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.body, aot_bytes);
  // Outside the profile the route's artifact is excluded, like any
  // family linkbase outside its profile.
  EXPECT_FALSE(server->get(path, "empty").ok());

  // An expression edit must retire the cached synthesized artifact.
  (void)in.edit_route("authors", "@ByAuthor / next");
  site::Response r2 = server->get(path, "pa");
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(*r2.body, aot_bytes);
}

TEST(RouteDifferential, SurvivesPublisherReplicaPair) {
  auto engine = synthetic_engine(2);
  nav::Engine& in = *engine;
  auto publisher = engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));
  repl::Replica replica = repl::Replica::connect(publisher->endpoint());
  replica.start();

  (void)in.register_route(
      {"structural", "index-entry / next*", RouteCompile::Aot});
  (void)in.register_route({"authors", "@ByAuthor", RouteCompile::Lazy});
  in.register_profile({"ps", {"structural"}});
  in.register_profile({"pa", {"authors"}});
  (void)in.edit_route("authors", "@ByAuthor / next");

  const std::uint64_t target = in.snapshots().epoch();
  ASSERT_TRUE(replica.wait_for_epoch(target, std::chrono::seconds(30)))
      << replica.error();
  auto origin = in.snapshots().current();
  auto mirrored = replica.store().current();
  ASSERT_NE(mirrored->route_table(), nullptr);
  ASSERT_NE(origin->route_table(), nullptr);
  EXPECT_TRUE(*mirrored->route_table() == *origin->route_table());

  // A server over the REPLICA's store resolves both compile modes to
  // the origin's oracle bytes — the route table crossed the wire whole.
  serve::ConcurrentServer server(replica.store(), 2);
  for (const nav::Profile profile :
       {nav::Profile{"ps", {"structural"}}, nav::Profile{"pa", {"authors"}}}) {
    const std::map<std::string, std::string> oracle =
        navsep::testing::profile_oracle(*engine, profile);
    for (const auto& [path, bytes] : oracle) {
      site::Response r = server.get(path, profile.name);
      ASSERT_TRUE(r.ok()) << profile.name << " " << path;
      EXPECT_EQ(*r.body, bytes) << profile.name << " " << path;
    }
  }
}

// --- route_family / expand_route semantics ------------------------------------

TEST(RouteExpand, FamilyAtomNeverMatchesStructureArcs) {
  auto engine = paper_engine();
  // '@ByAuthor' expands to exactly the nodes on ByAuthor tours — the
  // structure's own (context-free) next/prev arcs must not leak in.
  const hm::ContextFamily family =
      [&] {
        (void)engine->register_route(
            {"authors", "@ByAuthor", RouteCompile::Aot});
        return engine->route_family("authors");
      }();
  ASSERT_EQ(family.contexts().size(), 1u);
  for (const std::string& id : family.contexts().front().node_ids()) {
    EXPECT_EQ(id.rfind("index:", 0), std::string::npos)
        << "structure page leaked into @ByAuthor: " << id;
  }
  EXPECT_FALSE(family.contexts().front().node_ids().empty());
}

TEST(RouteExpand, NullableExpressionYieldsWholeUniverse) {
  std::vector<navsep::core::NavArc> arcs;
  navsep::core::NavArc a;
  a.from = "n1";
  a.to = "n2";
  a.role = "next";
  arcs.push_back(a);
  const std::vector<std::string> all = nav::expand_route(
      nav::parse_route("next*"), navsep::testing::chunks_of(arcs));
  EXPECT_EQ(all, (std::vector<std::string>{"n1", "n2"}));
  const std::vector<std::string> strict = nav::expand_route(
      nav::parse_route("next / next"), navsep::testing::chunks_of(arcs));
  EXPECT_TRUE(strict.empty());
}

TEST(RouteExpand, TokenCoversNameExpressionAndCompileMode) {
  const RouteProgram base{"r", "next / prev", RouteCompile::Aot};
  EXPECT_EQ(nav::route_token(base), nav::route_token(base));
  EXPECT_NE(nav::route_token(base),
            nav::route_token({"r2", "next / prev", RouteCompile::Aot}));
  EXPECT_NE(nav::route_token(base),
            nav::route_token({"r", "next / up", RouteCompile::Aot}));
  EXPECT_NE(nav::route_token(base),
            nav::route_token({"r", "next / prev", RouteCompile::Lazy}));
}

}  // namespace
