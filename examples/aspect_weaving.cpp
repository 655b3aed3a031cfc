// aspect_weaving: the AOP machinery exposed — write your own aspects
// against the hypermedia join-point model.
//
// The pipeline supplies the library's navigation aspect; this example
// registers two more on the engine's weaver (a framework member of
// nav::Engine, not part of the end-user navigation surface):
//   breadcrumbs — adds a "you are here: 2 of 3" marker, but ONLY on pages
//                 composed inside a ByAuthor context (within() pointcut)
//   audit       — counts traversals per arc role from session join points
//
// Run: build/examples/aspect_weaving
#include <cstdio>
#include <map>

#include "nav/pipeline.hpp"

int main() {
  using namespace navsep;

  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .schema()
                    .access(hypermedia::AccessStructureKind::IndexedGuidedTour,
                            "picasso")
                    .contexts({"ByAuthor"})
                    .weave()
                    .serve();

  // Custom aspects go through the engine's weaver, never through the
  // end-user navigation surface.
  aop::Weaver& weaver = engine->weaver();
  const hypermedia::ContextFamily& by_author = engine->context_families()[0];

  // 1. A custom breadcrumb aspect: position marker, by-author pages only.
  auto breadcrumbs = std::make_shared<aop::Aspect>("breadcrumbs", 5);
  breadcrumbs->after(
      "compose(PaintingNode) && within(ByAuthor:*)",
      [&](aop::JoinPointContext& ctx) {
        auto* body = ctx.payload_as<xml::Element*>();
        if (body == nullptr || *body == nullptr) return;
        const std::string& id = ctx.join_point().instance;
        const auto* context =
            by_author.containing(id).empty() ? nullptr
                                             : by_author.containing(id)[0];
        if (context == nullptr) return;
        auto pos = context->position_of(id);
        xml::Element& p = (*body)->append_element("p");
        p.set_attribute("class", "breadcrumb");
        p.append_text("You are at painting " +
                      std::to_string(pos.value_or(0) + 1) + " of " +
                      std::to_string(context->size()) + " by this author");
      },
      "position marker inside by-author contexts");
  weaver.register_aspect(breadcrumbs);

  // 2. An audit aspect observing session traversals.
  std::map<std::string, int> role_counts;
  auto audit = std::make_shared<aop::Aspect>("audit");
  audit->before("traverse(*)", [&](aop::JoinPointContext& ctx) {
    role_counts[std::string(ctx.join_point().tag("role"))]++;
  });
  weaver.register_aspect(audit);

  // Compose the same page in and out of context, through the engine.
  std::string plain = engine->compose_page("guernica");
  std::string contextual =
      engine->compose_page("guernica", "ByAuthor:picasso");

  std::printf("=== guernica.html, no context (no breadcrumb) ===\n%s\n",
              plain.c_str());
  std::printf("=== guernica.html, within ByAuthor:picasso ===\n%s\n",
              contextual.c_str());

  // Browse a little so the audit aspect sees traversals.
  site::NavigationSession session = engine->open_session();
  session.enter_context("ByAuthor", "picasso", "guitar");
  while (session.next()) {
  }
  session.prev();
  session.leave_context();

  std::printf("=== audit: traversals by role ===\n");
  for (const auto& [role, count] : role_counts) {
    std::printf("  %-16s %d\n", role.c_str(), count);
  }
  std::printf("=== weaver stats ===\n");
  std::printf("  join points executed : %zu\n",
              weaver.stats().join_points_executed);
  std::printf("  advice invocations   : %zu\n",
              weaver.stats().advice_invocations);
  std::printf("  match cache hit/miss : %zu/%zu\n",
              weaver.stats().match_cache_hits,
              weaver.stats().match_cache_misses);
  return 0;
}
