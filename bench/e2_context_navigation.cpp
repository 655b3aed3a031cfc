// E2 — context-dependent navigation (paper §2).
//
// The museum scenario: the successor of a painting depends on how it was
// reached. The fixture engine (nav::SitePipeline with both context
// families) drives NavigationSession through
//
//   BM_TourWalk         — next() across a whole by-author context
//                         (raw traversal: session without a weaver)
//   BM_ContextSwitch    — visit + through(family) re-contextualization
//   BM_MixedSession     — a realistic browse: enter, walk, switch family,
//                         walk, leave — sessions opened on the engine, so
//                         join points reach its weaver (audit aspect
//                         registered on the engine's weaver)
//
// Expected shape: per-step cost linear in context size (contexts are
// ordered scans), constant-ish context switches.
#include <benchmark/benchmark.h>

#include <memory>

#include "nav/pipeline.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace nav = navsep::nav;

std::unique_ptr<nav::Engine> make_engine(std::size_t painters,
                                         std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = painters,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 4,
                                                .seed = 13})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

void BM_TourWalk(benchmark::State& state) {
  auto engine = make_engine(1, static_cast<std::size_t>(state.range(0)));
  const auto& by_author = engine->context_families()[0];
  std::size_t steps = 0;
  for (auto _ : state) {
    navsep::site::NavigationSession session(engine->navigation(),
                                            {&by_author});
    session.enter_context("ByAuthor", "painter-0", "painter-0-work-0");
    steps = 0;
    while (session.next()) ++steps;
    benchmark::DoNotOptimize(session);
  }
  state.counters["steps"] = static_cast<double>(steps);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}

void BM_ContextSwitch(benchmark::State& state) {
  auto engine = make_engine(static_cast<std::size_t>(state.range(0)), 5);
  navsep::site::NavigationSession session = engine->open_session();
  session.visit("painter-0-work-0");
  bool flip = false;
  for (auto _ : state) {
    bool ok = session.through(flip ? "ByAuthor" : "ByMovement");
    flip = !flip;
    benchmark::DoNotOptimize(ok);
  }
}

void BM_MixedSession(benchmark::State& state) {
  auto engine = make_engine(static_cast<std::size_t>(state.range(0)), 5);
  auto audit = std::make_shared<navsep::aop::Aspect>("audit");
  std::size_t traversals = 0;
  audit->before("traverse(*)", [&](navsep::aop::JoinPointContext&) {
    ++traversals;
  });
  engine->weaver().register_aspect(audit);

  for (auto _ : state) {
    navsep::site::NavigationSession session = engine->open_session();
    session.enter_context("ByAuthor", "painter-0", "painter-0-work-0");
    session.next();
    session.next();
    session.through("ByMovement");
    session.next();
    session.prev();
    session.leave_context();
    benchmark::DoNotOptimize(session);
  }
  state.counters["audited_traversals"] = static_cast<double>(traversals);
}

}  // namespace

BENCHMARK(BM_TourWalk)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_ContextSwitch)->Arg(10)->Arg(100);
BENCHMARK(BM_MixedSession)->Arg(10)->Arg(100);
