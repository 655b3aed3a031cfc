// Quickstart: the paper's example through the navsep::nav façade.
//
// One fluent pipeline takes the museum of the paper (Picasso: The Guitar
// / Guernica / Les Demoiselles d'Avignon) from conceptual model to woven,
// served site: the navigational aspect is authored as an XLink linkbase
// and woven back at page composition. The browser then actually consumes
// the XLink arcs — the demonstration 2002 browsers could not give.
//
// Run: build/examples/quickstart
#include <cstdio>

#include "nav/pipeline.hpp"

int main() {
  using namespace navsep;

  // Conceptual model -> navigational schema -> access structure ->
  // weaving -> served site, in one sentence. The access structure is the
  // one the customer asked for *after* the change request: an Indexed
  // Guided Tour over Picasso's paintings.
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .schema()
                    .access(hypermedia::AccessStructureKind::IndexedGuidedTour,
                            "picasso")
                    .weave()
                    .serve();

  std::printf("=== links.xml (the authored navigational aspect) ===\n%s\n",
              engine->site().get("links.xml")->c_str());
  std::printf("=== guitar.html (woven page) ===\n%s\n",
              engine->site().get("guitar.html")->c_str());

  // Navigate the woven result through the end-user role interface.
  nav::Navigating& browser = engine->navigator();
  browser.navigate("guitar.html");
  browser.follow_role("next");
  browser.follow_role("next");
  browser.follow_role("up");
  std::printf("tour walked: ");
  for (const std::string& uri : engine->session().history()) {
    std::printf("%s ", uri.c_str());
  }

  const aop::WeaverStats& stats = engine->weaver().stats();
  std::printf(
      "\nweaver: %zu join points, %zu advice invocations, %zu cache hits\n",
      stats.join_points_executed, stats.advice_invocations,
      stats.match_cache_hits);
  return 0;
}
