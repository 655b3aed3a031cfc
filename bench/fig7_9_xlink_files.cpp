// F7–F9 — Figures 7/8/9: picasso.xml, avignon.xml and links.xml.
//
// Regenerates the three files of the paper's separated design and runs the
// complete consumption chain the 2002 browsers lacked:
//
//   BM_EmitDataDocuments  — Figures 7/8: entity → XML serialization
//   BM_EmitLinkbase       — Figure 9: access structure → XLink linkbase
//   BM_ConsumeLinkbase    — parse → extract → expand arcs → traversal graph
//                           (input: the links.xml the pipeline authored)
//   BM_ResolveEndpoints   — XPointer resolution of every locator into the
//                           registered data documents
//
// Fixtures come out of nav::SitePipeline. Expected shape: everything
// linear in members; resolution dominated by shorthand-id lookup.
#include <benchmark/benchmark.h>

#include "core/linkbase.hpp"
#include "nav/pipeline.hpp"
#include "xlink/processor.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace nav = navsep::nav;

std::unique_ptr<nav::Engine> wide_engine(std::size_t painters) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = painters,
                                                .paintings_per_painter = 5,
                                                .movements = 3,
                                                .seed = 9})
      .access(AccessStructureKind::IndexedGuidedTour)
      .weave()
      .serve();
}

std::unique_ptr<nav::Engine> deep_engine(std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 1,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 3,
                                                .seed = 9})
      .access(AccessStructureKind::IndexedGuidedTour, "painter-0")
      .weave()
      .serve();
}

void BM_EmitDataDocuments(benchmark::State& state) {
  auto engine = wide_engine(static_cast<std::size_t>(state.range(0)));
  std::size_t files = 0, bytes = 0;
  for (auto _ : state) {
    auto artifacts = engine->world().data_artifacts();
    files = artifacts.size();
    bytes = 0;
    for (const auto& [path, content] : artifacts) bytes += content.size();
    benchmark::DoNotOptimize(artifacts);
  }
  state.counters["files"] = static_cast<double>(files);
  state.counters["bytes"] = static_cast<double>(bytes);
}

void BM_EmitLinkbase(benchmark::State& state) {
  auto engine = deep_engine(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto doc = navsep::core::build_linkbase(engine->structure());
    std::string text = navsep::xml::write(*doc, {.pretty = true});
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.counters["linkbase_bytes"] = static_cast<double>(bytes);
}

void BM_ConsumeLinkbase(benchmark::State& state) {
  auto engine = deep_engine(static_cast<std::size_t>(state.range(0)));
  const std::string& text = *engine->site().get("links.xml");
  std::size_t arcs = 0;
  for (auto _ : state) {
    navsep::xml::ParseOptions opts;
    opts.base_uri = engine->server().base() + "links.xml";
    auto doc = navsep::xml::parse(text, opts);
    auto graph = navsep::xlink::TraversalGraph::from_linkbase(*doc);
    arcs = graph.arcs().size();
    benchmark::DoNotOptimize(graph);
  }
  state.counters["arcs"] = static_cast<double>(arcs);
  state.counters["linkbase_bytes"] = static_cast<double>(text.size());
}

void BM_ResolveEndpoints(benchmark::State& state) {
  // Register every data document, then resolve each painting URI+fragment.
  auto engine = wide_engine(static_cast<std::size_t>(state.range(0)));
  std::vector<std::unique_ptr<navsep::xml::Document>> docs;
  navsep::xlink::DocumentRegistry registry;
  std::vector<std::string> targets;
  for (const std::string& pid : engine->world().painter_ids()) {
    navsep::xml::ParseOptions opts;
    opts.base_uri = engine->server().base() + "data/" + pid + ".xml";
    auto doc = navsep::xml::parse(
        navsep::xml::write(*engine->world().painter_document(pid), {}), opts);
    registry.add(*doc);
    for (const navsep::xml::Element* painting :
         doc->root()->children_named("painting")) {
      targets.push_back(opts.base_uri + "#" +
                        std::string(*painting->attribute("id")));
    }
    docs.push_back(std::move(doc));
  }
  std::size_t resolved = 0;
  for (auto _ : state) {
    resolved = 0;
    for (const std::string& t : targets) {
      if (registry.resolve(t) != nullptr) ++resolved;
    }
    benchmark::DoNotOptimize(resolved);
  }
  state.counters["targets"] = static_cast<double>(targets.size());
  state.counters["resolved"] = static_cast<double>(resolved);
}

}  // namespace

BENCHMARK(BM_EmitDataDocuments)->Arg(3)->Arg(30)->Arg(100);
BENCHMARK(BM_EmitLinkbase)->Arg(3)->Arg(30)->Arg(300);
BENCHMARK(BM_ConsumeLinkbase)->Arg(3)->Arg(30)->Arg(300);
BENCHMARK(BM_ResolveEndpoints)->Arg(3)->Arg(10)->Arg(30);
