// The live-NavigationSession-vs-edit_context_family hazard, pinned as
// an explicit contract.
//
// Engine::open_session() hands out a session holding pointers INTO the
// engine's context families; edit_context_family mutates a family in
// place by replacing its contexts vector. A session whose active
// context points into the replaced vector therefore dangles — which is
// why the API contract (nav/roles.hpp, edit_context_family) says
// sessions over the engine's families must be QUIESCED across writer
// mutations, while snapshot-based readers are unaffected.
//
// This file pins the three well-defined sides of that contract — and
// deliberately never executes the undefined one (using a stale context
// pointer); the ASan CI job keeps the tested half honest at the memory
// level:
//
//   1. a quiesced session (leave_context before the edit) stays valid,
//      and re-entering observes the post-edit tour order through the
//      same family pointers — family OBJECTS are stable, only their
//      contexts move;
//   2. a session over value-copied families is fully isolated: the
//      engine edit never reaches the copy;
//   3. route families (Engine::route_family) are value snapshots of the
//      expansion at call time — edit_route moves the engine's truth,
//      never a previously returned copy.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "nav/route.hpp"
#include "site/session.hpp"

namespace {

namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace site = navsep::site;

std::unique_ptr<nav::Engine> make_engine() {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 2,
                                                .paintings_per_painter = 3,
                                                .movements = 1,
                                                .seed = 7})
      .access(hm::AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

/// Reverse the tour of ByAuthor's first context (painter-0's works).
void reverse_first_author_tour(nav::Engine& engine) {
  (void)engine.edit_context_family(
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
}

TEST(SessionEditContract, QuiescedSessionObservesTheEditOnReentry) {
  auto engine = make_engine();
  site::NavigationSession session = engine->open_session();

  // Pre-edit: painter-0's authored tour runs work-0 → work-1 → work-2.
  ASSERT_TRUE(
      session.enter_context("ByAuthor", "painter-0", "painter-0-work-0"));
  ASSERT_TRUE(session.next());
  EXPECT_EQ(session.current()->id(), "painter-0-work-1");

  // THE contract: leave the context before the writer mutates the
  // family. The session object itself stays alive and usable — only
  // its pointer into the (about to be replaced) contexts vector must
  // be released.
  session.leave_context();
  ASSERT_NO_FATAL_FAILURE(reverse_first_author_tour(*engine));

  // Re-entry goes through the engine-owned family objects, whose
  // addresses are stable across edits — the same session now walks the
  // REVERSED tour: work-2 → work-1 → work-0.
  ASSERT_TRUE(session.visit("painter-0-work-2"));
  ASSERT_TRUE(session.through("ByAuthor"));
  auto position = session.position();
  ASSERT_TRUE(position.has_value());
  EXPECT_EQ(position->first, 1u);
  ASSERT_TRUE(session.next());
  EXPECT_EQ(session.current()->id(), "painter-0-work-1");
  ASSERT_TRUE(session.next());
  EXPECT_EQ(session.current()->id(), "painter-0-work-0");
  EXPECT_FALSE(session.next());

  // The full trail survived the quiesce/re-enter cycle.
  EXPECT_EQ(session.trail().size(), 5u);
}

TEST(SessionEditContract, ValueCopiedFamiliesAreIsolatedFromEngineEdits) {
  auto engine = make_engine();

  // A session over a value COPY of the family is the sanctioned way to
  // keep navigating across writer mutations: the copy owns its
  // contexts, so the engine edit cannot reach it.
  const hm::ContextFamily* engine_family = nullptr;
  for (const hm::ContextFamily& family : engine->context_families()) {
    if (family.name() == "ByAuthor") engine_family = &family;
  }
  ASSERT_NE(engine_family, nullptr);
  const hm::ContextFamily copy = *engine_family;

  site::NavigationSession session(engine->navigation(), {&copy});
  ASSERT_TRUE(
      session.enter_context("ByAuthor", "painter-0", "painter-0-work-0"));

  ASSERT_NO_FATAL_FAILURE(reverse_first_author_tour(*engine));

  // Mid-context navigation continues against the pre-edit order —
  // including the active-context pointer taken BEFORE the edit.
  ASSERT_TRUE(session.next());
  EXPECT_EQ(session.current()->id(), "painter-0-work-1");
  ASSERT_TRUE(session.next());
  EXPECT_EQ(session.current()->id(), "painter-0-work-2");

  // The engine-side truth did move: a fresh engine session sees the
  // reversed tour.
  site::NavigationSession fresh = engine->open_session();
  ASSERT_TRUE(
      fresh.enter_context("ByAuthor", "painter-0", "painter-0-work-2"));
  ASSERT_TRUE(fresh.next());
  EXPECT_EQ(fresh.current()->id(), "painter-0-work-1");
}

TEST(SessionEditContract, RouteFamiliesAreValueSnapshotsAcrossRouteEdits) {
  auto engine = make_engine();
  (void)engine->register_route(
      {"authored", "@ByAuthor", nav::RouteCompile::Lazy});

  // route_family returns the expansion BY VALUE — a navigable family
  // whose single context ("<name>:route") holds the sorted reachable
  // set.
  const hm::ContextFamily before = engine->route_family("authored");
  ASSERT_EQ(before.contexts().size(), 1u);
  const std::vector<std::string> reachable =
      before.contexts().front().node_ids();
  ASSERT_GE(reachable.size(), 2u);

  site::NavigationSession session(engine->navigation(), {&before});
  ASSERT_TRUE(session.enter_context("authored", "route", reachable[0]));
  ASSERT_TRUE(session.next());
  EXPECT_EQ(session.current()->id(), reachable[1]);

  // Narrow the program: the engine's expansion changes, the copy (and
  // the live session over it) do not.
  (void)engine->edit_route("authored", "@ByAuthor / index-entry");
  EXPECT_EQ(before.contexts().front().node_ids(), reachable);
  ASSERT_TRUE(session.prev());
  EXPECT_EQ(session.current()->id(), reachable[0]);

  const hm::ContextFamily after = engine->route_family("authored");
  EXPECT_NE(after.contexts().front().node_ids(), reachable);
}

}  // namespace
