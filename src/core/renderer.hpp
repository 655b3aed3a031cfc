// Page rendering, both ways the paper contrasts.
//
//   * TangledRenderer — the "before" picture (Figures 3/4): one renderer
//     emits content AND navigation; the access structure is hard-coded
//     into every page it produces, so changing it rewrites every page.
//
//   * SeparatedComposer — the "after" picture (Figure 6): the base
//     renderer emits content only and announces join points; the
//     navigation aspect (navigation_aspect.hpp) injects anchors at
//     PageCompose/IndexBuild. Both renderers emit the same markup shape,
//     which keeps the fig6 weaving-overhead comparison honest.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "aop/weaver.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "hypermedia/navigational.hpp"
#include "html/html.hpp"

namespace navsep::core {

struct RenderOptions {
  /// id → href in the rendered site (default: default_href_for).
  std::function<std::string(std::string_view id)> href_for;
  /// Stylesheet referenced from every page ("" = none).
  std::string stylesheet_href = "museum.css";
};

/// Render the *content* part of a node page (title, attributes, image
/// placeholder) — shared by both pipelines; contains no navigation.
void render_node_content(html::Page& page, const hypermedia::NavNode& node);

/// One rendered artifact.
struct RenderedPage {
  std::string path;  // site-relative file name
  std::string content;
};

/// The tangled implementation (paper Figures 3 and 4).
class TangledRenderer {
 public:
  TangledRenderer(const hypermedia::NavigationalModel& model,
                  const hypermedia::AccessStructure& structure,
                  RenderOptions options = {});

  /// A member node's page, with navigation anchors embedded inline.
  [[nodiscard]] std::string render_node_page(
      const hypermedia::NavNode& node) const;

  /// The access structure's own page (the Index page).
  [[nodiscard]] std::string render_structure_page() const;

  /// All pages: one per member plus structure pages.
  [[nodiscard]] std::vector<RenderedPage> render_site() const;

 private:
  void embed_navigation(html::Page& page, std::string_view id) const;

  const hypermedia::NavigationalModel* model_;
  const hypermedia::AccessStructure* structure_;
  RenderOptions options_;
  std::vector<hypermedia::AccessArc> arcs_;  // materialized once
};

/// The separated implementation: content + woven navigation.
class SeparatedComposer {
 public:
  SeparatedComposer(aop::Weaver& weaver, RenderOptions options = {});

  /// Compose one node page. `context_tag` is the qualified navigational
  /// context ("ByAuthor:picasso") the user is in; it reaches the aspect as
  /// the join point's context tag.
  [[nodiscard]] std::string compose_node_page(
      const hypermedia::NavNode& node, std::string_view context_tag = "") const;

  /// Compose a structure (index/menu) page.
  [[nodiscard]] std::string compose_structure_page(
      std::string_view page_id, std::string_view title) const;

  /// Compose every page of a site: members of `structure` + its pages.
  [[nodiscard]] std::vector<RenderedPage> compose_site(
      const hypermedia::NavigationalModel& model,
      const hypermedia::AccessStructure& structure) const;

 private:
  aop::Weaver* weaver_;
  RenderOptions options_;
};

}  // namespace navsep::core
