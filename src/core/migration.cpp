#include "core/migration.hpp"

#include "aop/weaver.hpp"
#include "core/navigation_aspect.hpp"

namespace navsep::core {

namespace {

std::vector<Artifact> to_artifacts(std::vector<RenderedPage> pages) {
  std::vector<Artifact> out;
  out.reserve(pages.size());
  for (auto& p : pages) {
    out.emplace_back(std::move(p.path), std::move(p.content));
  }
  return out;
}

std::vector<Artifact> separated_rendered_site(
    const hypermedia::NavigationalModel& model,
    const hypermedia::AccessStructure& structure,
    const MigrationOptions& options) {
  aop::Weaver weaver;
  NavigationAspectOptions nav_opts;
  nav_opts.href_for = options.render.href_for;
  weaver.register_aspect(NavigationAspect::from_contextual_arcs(
      {expand_linkbase(
           draft_linkbase(structure, structure.arcs(), options.linkbase),
           "links.xml")
           .chunk},
      nav_opts));

  SeparatedComposer composer(weaver, options.render);
  return to_artifacts(composer.compose_site(model, structure));
}

}  // namespace

std::vector<Artifact> separated_authored_artifacts(
    const hypermedia::AccessStructure& structure,
    const MigrationOptions& options) {
  std::vector<Artifact> out = options.separated_fixed_artifacts;
  out.emplace_back("links.xml", write_linkbase(draft_linkbase(
                                    structure, structure.arcs(),
                                    options.linkbase)));
  return out;
}

std::vector<Artifact> tangled_authored_artifacts(
    const hypermedia::NavigationalModel& model,
    const hypermedia::AccessStructure& structure,
    const MigrationOptions& options) {
  TangledRenderer renderer(model, structure, options.render);
  return to_artifacts(renderer.render_site());
}

MigrationReport measure_migration(const hypermedia::NavigationalModel& model,
                                  const hypermedia::AccessStructure& before,
                                  const hypermedia::AccessStructure& after,
                                  const MigrationOptions& options) {
  MigrationReport report;

  std::vector<Artifact> tangled_before =
      tangled_authored_artifacts(model, before, options);
  std::vector<Artifact> tangled_after =
      tangled_authored_artifacts(model, after, options);
  report.tangled_authored = diff::compare_sites(tangled_before, tangled_after);
  report.tangled_artifacts = tangled_after.size();

  std::vector<Artifact> separated_before =
      separated_authored_artifacts(before, options);
  std::vector<Artifact> separated_after =
      separated_authored_artifacts(after, options);
  report.separated_authored =
      diff::compare_sites(separated_before, separated_after);
  report.separated_artifacts = separated_after.size();

  report.separated_rendered = diff::compare_sites(
      separated_rendered_site(model, before, options),
      separated_rendered_site(model, after, options));

  return report;
}

}  // namespace navsep::core
