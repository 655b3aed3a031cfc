// F6 — Figure 6: separating the navigational aspect — what the weaving
// costs.
//
// Substitution 1 (DESIGN.md): the paper assumes compile-time AspectJ
// weaving; we weave at runtime, so the separation has a measurable price.
// This bench renders the same page
//
//   tangled          — navigation emitted inline (no weaver), and
//   woven            — content render + PageCompose join point + the
//                      navigation aspect's advice,
//
// and reports the overhead ratio. Both render from one separated
// engine out of nav::SitePipeline: the woven side through its weaver,
// the tangled side through a core::TangledRenderer over its
// navigation() and structure(). Both emit byte-identical pages
// (asserted in core_test), so the delta is pure mechanism cost.
// Expected shape: a small constant per page that amortizes to noise
// over whole-site builds.
#include <benchmark/benchmark.h>

#include "core/renderer.hpp"
#include "nav/pipeline.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace nav = navsep::nav;

std::unique_ptr<nav::Engine> make_engine(std::size_t paintings) {
  auto engine =
      nav::SitePipeline()
          .conceptual(navsep::museum::SyntheticSpec{.painters = 1,
                                                    .paintings_per_painter =
                                                        paintings,
                                                    .movements = 2,
                                                    .seed = 5})
          .access(AccessStructureKind::IndexedGuidedTour, "painter-0")
          .serve();
  engine->weaver().reset_stats();  // drop the build-time weave
  return engine;
}

void BM_TangledPage(benchmark::State& state) {
  auto engine = make_engine(static_cast<std::size_t>(state.range(0)));
  navsep::core::TangledRenderer renderer(engine->navigation(),
                                         engine->structure());
  const auto* node = engine->navigation().node("painter-0-work-1");
  for (auto _ : state) {
    std::string page = renderer.render_node_page(*node);
    benchmark::DoNotOptimize(page);
  }
}

void BM_WovenPage(benchmark::State& state) {
  auto engine = make_engine(static_cast<std::size_t>(state.range(0)));
  navsep::aop::Weaver& weaver = engine->weaver();
  navsep::core::SeparatedComposer composer(weaver);
  const auto* node = engine->navigation().node("painter-0-work-1");
  for (auto _ : state) {
    std::string page = composer.compose_node_page(*node);
    benchmark::DoNotOptimize(page);
  }
  state.counters["advice_invocations_per_page"] =
      static_cast<double>(weaver.stats().advice_invocations) /
      static_cast<double>(weaver.stats().join_points_executed / 2);
}

void BM_WovenSite(benchmark::State& state) {
  auto engine = make_engine(static_cast<std::size_t>(state.range(0)));
  navsep::core::SeparatedComposer composer(engine->weaver());
  std::size_t pages = 0;
  for (auto _ : state) {
    auto site = composer.compose_site(engine->navigation(),
                                      engine->structure());
    pages = site.size();
    benchmark::DoNotOptimize(site);
  }
  state.counters["pages"] = static_cast<double>(pages);
}

void BM_TangledSite(benchmark::State& state) {
  auto engine = make_engine(static_cast<std::size_t>(state.range(0)));
  navsep::core::TangledRenderer renderer(engine->navigation(),
                                         engine->structure());
  std::size_t pages = 0;
  for (auto _ : state) {
    auto site = renderer.render_site();
    pages = site.size();
    benchmark::DoNotOptimize(site);
  }
  state.counters["pages"] = static_cast<double>(pages);
}

}  // namespace

BENCHMARK(BM_TangledPage)->Arg(3)->Arg(30)->Arg(300);
BENCHMARK(BM_WovenPage)->Arg(3)->Arg(30)->Arg(300);
BENCHMARK(BM_TangledSite)->Arg(30)->Arg(100);
BENCHMARK(BM_WovenSite)->Arg(30)->Arg(100);
