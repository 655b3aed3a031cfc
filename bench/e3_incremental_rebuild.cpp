// E3 — the runtime companion to E1's authored-artifact asymmetry.
//
// E1 measured what a developer must *edit* when the access structure
// changes (one linkbase vs every page). This experiment measures what the
// runtime must *recompute*: a full rebuild() re-weaves the whole site on
// any change, while the incremental build graph re-weaves only the pages
// whose arc slice the edit touched.
//
//   BM_FullReweave/N        — rebuild() over an N-painting museum
//   BM_IncrementalArcEdit/N — replace one authored arc (retitle its
//                             anchor), which re-weaves exactly one page
//   BM_IncrementalRetitle/N — retitle one member (index + two tour
//                             neighbors re-weave)
//
// Counters reported per run:
//   pages_rewoven / pages_total — the work the graph actually did
//   reweave_ratio               — their quotient; shrinks as the museum
//                                 grows for the incremental paths, pinned
//                                 at 1.0 for the full path
//   nodes_dirty                 — build-graph nodes visited
//
// Expected shape: incremental latency is O(affected pages) + one linkbase
// re-authoring, so the full/incremental gap widens linearly with N; the
// paper instance (3 paintings) sits next to synthetic museums of 10²–10⁴
// nodes.
#include <benchmark/benchmark.h>

#include <string>

#include "nav/pipeline.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;

std::unique_ptr<nav::Engine> museum_engine(std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 1,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 3,
                                                .seed = 42})
      .access(AccessStructureKind::IndexedGuidedTour, "painter-0")
      .weave()
      .serve();
}

void report(benchmark::State& state, const nav::RebuildReport& r) {
  state.counters["pages_rewoven"] = static_cast<double>(r.pages_rewoven);
  state.counters["pages_total"] = static_cast<double>(r.pages_total);
  state.counters["reweave_ratio"] = r.reweave_ratio();
  state.counters["nodes_dirty"] = static_cast<double>(r.nodes_dirty);
}

void BM_FullReweave(benchmark::State& state) {
  auto engine = museum_engine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    engine->rebuild();
    benchmark::DoNotOptimize(engine->site().size());
  }
  nav::RebuildReport full{};
  full.pages_total = engine->build_graph().count(nav::ProductKind::Page);
  full.pages_rewoven = full.pages_total;  // rebuild() recomposes everything
  report(state, full);
}

void BM_IncrementalArcEdit(benchmark::State& state) {
  auto engine = museum_engine(static_cast<std::size_t>(state.range(0)));
  // The finest edit the linkbase supports: retitle one member page's
  // "up" anchor. Each iteration writes a fresh title so the edit is
  // never a no-op (an unchanged hash would cut the rebuild off).
  const std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  std::size_t up_index = 0;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].role == hm::roles::kUp) {
      up_index = i;
      break;
    }
  }
  nav::RebuildReport last{};
  std::size_t revision = 0;
  for (auto _ : state) {
    hm::AccessArc edited = arcs[up_index];
    edited.title = "Index (rev " + std::to_string(++revision) + ")";
    last = engine->replace_arc(up_index, edited);
    benchmark::DoNotOptimize(last);
  }
  report(state, last);
}

void BM_IncrementalRetitle(benchmark::State& state) {
  auto engine = museum_engine(static_cast<std::size_t>(state.range(0)));
  const std::string victim =
      engine->structure().members()[engine->structure().members().size() / 2]
          .node_id;
  nav::RebuildReport last{};
  std::size_t revision = 0;
  for (auto _ : state) {
    last = engine->retitle_node(victim,
                                "Retitled " + std::to_string(++revision));
    benchmark::DoNotOptimize(last);
  }
  report(state, last);
}

}  // namespace

// 3 = the paper's own context size; 100/1000/10000 = the synthetic
// museums (page count is N members + 1 index page).
BENCHMARK(BM_FullReweave)
    ->Arg(3)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalArcEdit)
    ->Arg(3)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalRetitle)
    ->Arg(3)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
