// xlink_tour: drive the browser simulator across the woven site by
// actuating XLink arcs — the demonstration 2002 browsers couldn't give.
//
// The pipeline builds the separated site and serves it; the tour then
// walks index -> first painting -> next -> next -> up through the
// role-segregated nav::Navigating interface, printing the arcs offered at
// every stop and exercising history (back/forward).
//
// Run: build/examples/xlink_tour
#include <cstdio>

#include "nav/pipeline.hpp"

int main() {
  using namespace navsep;

  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .schema()
                    .access(hypermedia::AccessStructureKind::IndexedGuidedTour,
                            "picasso")
                    .weave()
                    .serve();

  nav::Navigating& browser = engine->navigator();
  auto show_stop = [&] {
    std::printf("\n@ %s\n", browser.location().c_str());
    for (const xlink::Arc* arc : browser.links()) {
      std::printf("   [%s] -> %s  (%s)\n", arc->arcrole.c_str(),
                  arc->to.uri.c_str(),
                  arc->title.empty() ? "-" : arc->title.c_str());
    }
  };

  std::printf("=== touring %zu arcs of the linkbase ===\n",
              engine->arc_table().arcs().size());
  browser.navigate("index-paintings-of-picasso.html");
  show_stop();
  browser.follow_role("index-entry");
  show_stop();
  browser.follow_role("next");
  show_stop();
  browser.follow_role("next");
  show_stop();
  browser.follow_role("up");
  show_stop();

  std::printf("\n=== history exercise ===\n");
  browser.back();
  std::printf("back    -> %s\n", browser.location().c_str());
  browser.back();
  std::printf("back    -> %s\n", browser.location().c_str());
  browser.forward();
  std::printf("forward -> %s\n", browser.location().c_str());

  const nav::SessionView& session = engine->session();
  // One coherent counter sample instead of four separately-read atomics.
  const navsep::serve::ConcurrentServer::LayerStats stats =
      engine->server().unified_stats().base;
  std::printf("\nvisited %zu pages, server served %zu requests "
              "(%zu misses, %zu cache hits, %zu cached)\n",
              session.pages_visited(), stats.requests, stats.not_found,
              stats.hits, stats.entries);
  return 0;
}
