// F3 — Figure 3: the Guitar node implemented with an Index access
// structure, tangled style.
//
// Regenerates the figure's page (checked for shape in core_test) and
// measures tangled rendering: one member page, the index page, and the
// whole site, as the context grows. The fixture is the museum's Index
// over one painter, taken straight from the conceptual model: the
// tangled baseline needs no engine. Expected shape: member-page cost
// is O(1) in context size (Index pages carry one "up" anchor);
// index-page and site cost grow linearly.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/renderer.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/navigational.hpp"
#include "museum/museum.hpp"

namespace {

using navsep::core::TangledRenderer;
using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;

/// One painter's works under an Index. Declaration order is lifetime
/// order: the model views the world, the renderer views both.
struct Fixture {
  explicit Fixture(std::size_t paintings)
      : world(navsep::museum::MuseumWorld::synthetic(
            {.painters = 1,
             .paintings_per_painter = paintings,
             .movements = 2,
             .seed = 11})),
        model(world->derive_navigation()),
        structure(world->paintings_structure(AccessStructureKind::Index,
                                             model, "painter-0")),
        renderer(model, *structure) {}

  std::unique_ptr<navsep::museum::MuseumWorld> world;
  hm::NavigationalModel model;
  std::unique_ptr<hm::AccessStructure> structure;
  TangledRenderer renderer;
};

void BM_TangledMemberPage(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  const TangledRenderer& renderer = fixture.renderer;
  const auto* node = fixture.model.node("painter-0-work-0");
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string page = renderer.render_node_page(*node);
    bytes = page.size();
    benchmark::DoNotOptimize(page);
  }
  state.counters["page_bytes"] = static_cast<double>(bytes);
}

void BM_TangledIndexPage(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  const TangledRenderer& renderer = fixture.renderer;
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string page = renderer.render_structure_page();
    bytes = page.size();
    benchmark::DoNotOptimize(page);
  }
  state.counters["page_bytes"] = static_cast<double>(bytes);
}

void BM_TangledWholeSite(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  const TangledRenderer& renderer = fixture.renderer;
  std::size_t pages = 0;
  for (auto _ : state) {
    auto site = renderer.render_site();
    pages = site.size();
    benchmark::DoNotOptimize(site);
  }
  state.counters["pages"] = static_cast<double>(pages);
}

}  // namespace

BENCHMARK(BM_TangledMemberPage)->Arg(3)->Arg(30)->Arg(300);
BENCHMARK(BM_TangledIndexPage)->Arg(3)->Arg(30)->Arg(300);
BENCHMARK(BM_TangledWholeSite)->Arg(3)->Arg(30)->Arg(100);
