#include "core/renderer.hpp"

#include "core/navigation_aspect.hpp"

namespace navsep::core {

namespace {

using hypermedia::roles::kIndexEntry;
using hypermedia::roles::kMenuEntry;
using hypermedia::roles::kNext;
using hypermedia::roles::kPrev;
using hypermedia::roles::kUp;

std::function<std::string(std::string_view)> href_or_default(
    const RenderOptions& o) {
  return o.href_for ? o.href_for : default_href_for;
}

}  // namespace

void render_node_content(html::Page& page, const hypermedia::NavNode& node) {
  page.heading(1, node.title());
  page.image(node.id() + ".jpg", node.title());
  for (const auto& [name, value] : node.visible_attributes()) {
    xml::Element& p = page.paragraph("");
    xml::Element& label = p.append_element("b");
    label.append_text(name + ": ");
    p.append_text(value);
  }
  page.rule();
}

// --- TangledRenderer ---------------------------------------------------------

TangledRenderer::TangledRenderer(const hypermedia::NavigationalModel& model,
                                 const hypermedia::AccessStructure& structure,
                                 RenderOptions options)
    : model_(&model),
      structure_(&structure),
      options_(std::move(options)),
      arcs_(structure.arcs()) {}

void TangledRenderer::embed_navigation(html::Page& page,
                                       std::string_view id) const {
  // The tangled version of NavigationInjector: the SAME markup, but
  // produced inline by the page renderer itself — navigation knowledge
  // scattered into every page (what the paper's Figures 3/4 show).
  auto href_for = href_or_default(options_);
  std::vector<const hypermedia::AccessArc*> ups, prevs, nexts, entries;
  for (const auto& arc : arcs_) {
    if (arc.from != id) continue;
    if (arc.role == kUp) {
      ups.push_back(&arc);
    } else if (arc.role == kPrev) {
      prevs.push_back(&arc);
    } else if (arc.role == kNext) {
      nexts.push_back(&arc);
    } else if (arc.role == kIndexEntry || arc.role == kMenuEntry) {
      entries.push_back(&arc);
    }
  }
  if (ups.empty() && prevs.empty() && nexts.empty() && entries.empty()) {
    return;
  }
  xml::Element& nav = page.body().append_element("div");
  nav.set_attribute("class", "navigation");
  auto anchor = [&](xml::Element& parent, const hypermedia::AccessArc& arc,
                    std::string_view cls) {
    xml::Element& a = parent.append_element("a");
    a.set_attribute("href", href_for(arc.to));
    a.set_attribute("class", cls);
    a.append_text(arc.title.empty() ? arc.to : arc.title);
  };
  for (const auto* arc : ups) anchor(nav, *arc, "nav-up");
  for (const auto* arc : prevs) anchor(nav, *arc, "nav-prev");
  for (const auto* arc : nexts) anchor(nav, *arc, "nav-next");
  if (!entries.empty()) {
    xml::Element& ul = nav.append_element("ul");
    ul.set_attribute("class", "nav-index");
    for (const auto* arc : entries) {
      anchor(ul.append_element("li"), *arc, "nav-entry");
    }
  }
}

std::string TangledRenderer::render_node_page(
    const hypermedia::NavNode& node) const {
  html::Page page(node.title());
  if (!options_.stylesheet_href.empty()) {
    page.stylesheet(options_.stylesheet_href);
  }
  render_node_content(page, node);
  embed_navigation(page, node.id());
  return page.to_string();
}

std::string TangledRenderer::render_structure_page() const {
  html::Page page(structure_->name());
  if (!options_.stylesheet_href.empty()) {
    page.stylesheet(options_.stylesheet_href);
  }
  page.heading(1, structure_->name());
  page.rule();
  embed_navigation(page, structure_->page_id());
  return page.to_string();
}

std::vector<RenderedPage> TangledRenderer::render_site() const {
  auto href_for = href_or_default(options_);
  std::vector<RenderedPage> out;
  for (const auto& member : structure_->members()) {
    const hypermedia::NavNode* node = model_->node(member.node_id);
    if (node == nullptr) continue;
    out.push_back(
        RenderedPage{href_for(node->id()), render_node_page(*node)});
  }
  out.push_back(RenderedPage{href_for(structure_->page_id()),
                             render_structure_page()});
  return out;
}

// --- SeparatedComposer ----------------------------------------------------------

SeparatedComposer::SeparatedComposer(aop::Weaver& weaver,
                                     RenderOptions options)
    : weaver_(&weaver), options_(std::move(options)) {}

std::string SeparatedComposer::compose_node_page(
    const hypermedia::NavNode& node, std::string_view context_tag) const {
  html::Page page(node.title());
  if (!options_.stylesheet_href.empty()) {
    page.stylesheet(options_.stylesheet_href);
  }

  aop::JoinPoint render_jp;
  render_jp.kind = aop::JoinPointKind::NodeRender;
  render_jp.subject = node.node_class().name;
  render_jp.instance = node.id();
  if (!context_tag.empty()) {
    render_jp.tags.emplace(std::string(aop::tags::kContext),
                           std::string(context_tag));
  }
  weaver_->execute(render_jp, [&] { render_node_content(page, node); });

  aop::JoinPoint compose_jp = render_jp;
  compose_jp.kind = aop::JoinPointKind::PageCompose;
  std::any payload = &page.body();
  weaver_->execute(compose_jp, &payload, [] {});
  return page.to_string();
}

std::string SeparatedComposer::compose_structure_page(
    std::string_view page_id, std::string_view title) const {
  html::Page page(title);
  if (!options_.stylesheet_href.empty()) {
    page.stylesheet(options_.stylesheet_href);
  }
  page.heading(1, title);
  page.rule();

  aop::JoinPoint jp;
  jp.kind = aop::JoinPointKind::IndexBuild;
  jp.subject = "AccessStructure";
  jp.instance = std::string(page_id);
  std::any payload = &page.body();
  weaver_->execute(jp, &payload, [] {});
  return page.to_string();
}

std::vector<RenderedPage> SeparatedComposer::compose_site(
    const hypermedia::NavigationalModel& model,
    const hypermedia::AccessStructure& structure) const {
  auto href_for = href_or_default(options_);
  std::vector<RenderedPage> out;
  for (const auto& member : structure.members()) {
    const hypermedia::NavNode* node = model.node(member.node_id);
    if (node == nullptr) continue;
    out.push_back(
        RenderedPage{href_for(node->id()), compose_node_page(*node)});
  }
  out.push_back(RenderedPage{href_for(structure.page_id()),
                             compose_structure_page(structure.page_id(),
                                                    structure.name())});
  return out;
}

}  // namespace navsep::core
