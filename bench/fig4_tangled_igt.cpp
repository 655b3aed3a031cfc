// F4 — Figure 4: the Guitar node re-implemented with an Indexed Guided
// Tour — the paper's "only two lines of HTML, but on every page".
//
// For each context size N this bench renders a member page under Index
// and under IGT (both structures over one painter of the same synthetic
// world — the tangled baseline needs no engine), diffs them, and
// reports:
//
//   lines_added_per_page   — the per-page cost the paper calls small
//   pages_affected         — N (every member of the context)
//   total_lines_added      — the real cost of the change, ∝ N
//
// Expected shape: lines_added_per_page constant; total cost linear in N.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/renderer.hpp"
#include "diff/diff.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/navigational.hpp"
#include "museum/museum.hpp"

namespace {

using navsep::core::TangledRenderer;
using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;

/// One painter's N works, before (Index) and after (IGT) the change
/// request. Declaration order is lifetime order: the model views the
/// world.
struct Fixture {
  explicit Fixture(std::size_t n)
      : world(navsep::museum::MuseumWorld::synthetic(
            {.painters = 1,
             .paintings_per_painter = n,
             .movements = 2,
             .seed = 3})),
        model(world->derive_navigation()),
        index(world->paintings_structure(AccessStructureKind::Index, model,
                                         "painter-0")),
        igt(world->paintings_structure(AccessStructureKind::IndexedGuidedTour,
                                       model, "painter-0")) {}

  std::unique_ptr<navsep::museum::MuseumWorld> world;
  hm::NavigationalModel model;
  std::unique_ptr<hm::AccessStructure> index;
  std::unique_ptr<hm::AccessStructure> igt;
};

void BM_IgtMigrationCost(benchmark::State& state) {
  const Fixture fixture(static_cast<std::size_t>(state.range(0)));
  const hm::NavigationalModel& nav_model = fixture.model;
  const hm::AccessStructure& index = *fixture.index;
  TangledRenderer index_renderer(nav_model, index);
  TangledRenderer igt_renderer(nav_model, *fixture.igt);

  std::size_t per_page = 0;
  std::size_t total = 0;
  std::size_t affected = 0;
  for (auto _ : state) {
    total = 0;
    affected = 0;
    for (const auto& member : index.members()) {
      const auto* node = nav_model.node(member.node_id);
      std::string before = index_renderer.render_node_page(*node);
      std::string after = igt_renderer.render_node_page(*node);
      navsep::diff::Stats s = navsep::diff::stats(before, after);
      if (!s.unchanged()) {
        ++affected;
        total += s.lines_changed();
        per_page = s.lines_changed();
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["pages_affected"] = static_cast<double>(affected);
  state.counters["lines_changed_last_page"] = static_cast<double>(per_page);
  state.counters["total_lines_changed"] = static_cast<double>(total);
}

void BM_IgtPageRender(benchmark::State& state) {
  const Fixture fixture(static_cast<std::size_t>(state.range(0)));
  TangledRenderer renderer(fixture.model, *fixture.igt);
  const auto* node = fixture.model.node("painter-0-work-1");  // a middle node
  for (auto _ : state) {
    std::string page = renderer.render_node_page(*node);
    benchmark::DoNotOptimize(page);
  }
}

}  // namespace

BENCHMARK(BM_IgtMigrationCost)->Arg(3)->Arg(10)->Arg(30)->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IgtPageRender)->Arg(3)->Arg(30)->Arg(300);
