#include "xlink/traversal.hpp"

#include <algorithm>
#include <iterator>
#include <ranges>
#include <set>
#include <span>
#include <unordered_map>

#include "uri/uri.hpp"
#include "xlink/processor.hpp"
#include "xpointer/xpointer.hpp"

namespace navsep::xlink {

namespace {

/// Every endpoint of the link, locators first (document order within kind).
std::vector<Endpoint> all_endpoints(const ExtendedLink& link,
                                    std::string_view base_uri) {
  std::vector<Endpoint> out;
  out.reserve(link.locators.size() + link.resources.size());
  const bool any_href = std::ranges::any_of(
      link.locators, [](const Locator& l) { return !l.href.empty(); });
  const uri::Uri base = any_href ? uri::parse(base_uri) : uri::Uri{};
  for (const auto& l : link.locators) {
    out.push_back({false, l.element,
                   l.href.empty()
                       ? std::string()
                       : uri::resolve(base, uri::parse(l.href)).to_string(),
                   l.label, l.role, l.title});
  }
  for (const auto& r : link.resources) {
    out.push_back({true, r.element, std::string(), r.label, r.role, r.title});
  }
  return out;
}

/// Endpoints in document order and stably sorted by label, so each
/// label's endpoints are one document-ordered range. An absent from/to
/// names every endpoint (XLink 1.0 §5.1.3), served by the `all` list.
/// Built once per link so expansion is O(arcs + endpoints log endpoints
/// + output) instead of re-scanning every endpoint per arc (which made
/// large linkbases quadratic to expand).
struct LabelIndex {
  std::vector<const Endpoint*> all;
  std::vector<const Endpoint*> by_label;

  static std::string_view label_of(const Endpoint* e) { return e->label; }

  explicit LabelIndex(const std::vector<Endpoint>& eps) {
    all.reserve(eps.size());
    for (const auto& e : eps) all.push_back(&e);
    by_label = all;
    std::ranges::stable_sort(by_label, {}, label_of);
  }

  [[nodiscard]] std::span<const Endpoint* const> with_label(
      std::string_view label) const {
    if (label.empty()) return all;
    return std::ranges::equal_range(by_label, label, {}, label_of);
  }
};

}  // namespace

void expand_arcs(const ExtendedLink& link, std::string_view base_uri,
                 std::vector<Arc>& out) {
  std::vector<Endpoint> eps = all_endpoints(link, base_uri);
  const LabelIndex index(eps);
  for (const auto& spec : link.arcs) {
    const std::span<const Endpoint* const> froms = index.with_label(spec.from);
    const std::span<const Endpoint* const> tos = index.with_label(spec.to);
    for (const Endpoint* f : froms) {
      for (const Endpoint* t : tos) {
        if (f == t) continue;  // an arc from a resource to itself is inert
        out.push_back(Arc{*f, *t, spec.arcrole, spec.title, spec.show,
                          spec.actuate, spec.element});
      }
    }
  }
}

std::vector<Arc> expand_arcs(const ExtendedLink& link,
                             std::string_view base_uri) {
  std::vector<Arc> out;
  out.reserve(link.arcs.size());
  expand_arcs(link, base_uri, out);
  return out;
}

std::vector<Arc> expand_arcs(const LinkCollection& links,
                             std::string_view base_uri) {
  std::vector<Arc> out;
  for (const auto& s : links.simple) {
    if (s.href.empty()) continue;
    Arc a;
    a.from.is_local = true;
    a.from.element = s.element;
    a.from.uri = std::string(base_uri);
    a.to.is_local = false;
    a.to.uri = uri::resolve(std::string(base_uri), s.href);
    a.to.role = s.role;
    a.to.title = s.title;
    a.arcrole = s.arcrole;
    a.title = s.title;
    a.show = s.show;
    a.actuate = s.actuate;
    a.origin = s.element;
    out.push_back(std::move(a));
  }
  for (const auto& x : links.extended) expand_arcs(x, base_uri, out);
  return out;
}

// --- DocumentRegistry --------------------------------------------------------

std::string normalize_document_uri(std::string_view u) {
  uri::Uri parsed = uri::parse(u);
  parsed.fragment.reset();
  return uri::normalize(parsed).to_string();
}

std::string normalize_ref(std::string_view u) {
  return uri::normalize(uri::parse(u)).to_string();
}

void DocumentRegistry::add(const xml::Document& doc) {
  add(doc.base_uri(), doc);
}

void DocumentRegistry::add(std::string_view u, const xml::Document& doc) {
  docs_[normalize_document_uri(u)] = &doc;
}

const xml::Document* DocumentRegistry::find(std::string_view u) const {
  auto it = docs_.find(normalize_document_uri(u));
  return it == docs_.end() ? nullptr : it->second;
}

const xml::Element* DocumentRegistry::resolve(std::string_view u) const {
  const xml::Document* doc = find(u);
  if (doc == nullptr) return nullptr;
  uri::Uri parsed = uri::parse(u);
  if (!parsed.fragment || parsed.fragment->empty()) {
    return doc->root();
  }
  return xpointer::resolve_element(*parsed.fragment, *doc);
}

// --- TraversalGraph ----------------------------------------------------------

TraversalGraph::TraversalGraph(std::vector<Arc> arcs)
    : arcs_(std::move(arcs)) {
  // A linkbase names each resource in many arcs: normalize each distinct
  // endpoint URI once (the views point into arcs_, which stays put).
  std::unordered_map<std::string_view, std::string> normalized;
  const auto key = [&normalized](const std::string& uri) -> const std::string& {
    auto [it, fresh] = normalized.try_emplace(uri);
    if (fresh) it->second = normalize_ref(uri);
    return it->second;
  };
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    const Arc& a = arcs_[i];
    if (!a.from.uri.empty()) by_from_[key(a.from.uri)].push_back(i);
    if (!a.to.uri.empty()) by_to_[key(a.to.uri)].push_back(i);
  }
}

TraversalGraph TraversalGraph::from_linkbase(const xml::Document& doc) {
  LinkCollection links = extract(doc);
  return TraversalGraph(expand_arcs(links, doc.base_uri()));
}

std::vector<const Arc*> TraversalGraph::outgoing(std::string_view u) const {
  const std::vector<std::size_t>* indices = outgoing_indices(normalize_ref(u));
  if (indices == nullptr) return {};
  std::vector<const Arc*> out;
  out.reserve(indices->size());
  for (std::size_t i : *indices) out.push_back(&arcs_[i]);
  return out;
}

std::vector<const Arc*> TraversalGraph::incoming(std::string_view u) const {
  auto it = by_to_.find(normalize_ref(u));
  if (it == by_to_.end()) return {};
  std::vector<const Arc*> out;
  out.reserve(it->second.size());
  for (std::size_t i : it->second) out.push_back(&arcs_[i]);
  return out;
}

const std::vector<std::size_t>* TraversalGraph::outgoing_indices(
    std::string_view normalized_uri) const {
  auto it = by_from_.find(normalized_uri);
  return it == by_from_.end() ? nullptr : &it->second;
}

std::vector<std::string> TraversalGraph::resource_uris() const {
  // Both indexes are keyed by normalize_ref of every non-empty endpoint,
  // in sorted order: the union of their keys is exactly that set.
  std::vector<std::string> out;
  std::ranges::set_union(by_from_ | std::views::keys, by_to_ | std::views::keys,
                         std::back_inserter(out));
  return out;
}

std::vector<const Arc*> TraversalGraph::outgoing_with_role(
    std::string_view u, std::string_view arcrole) const {
  const std::vector<std::size_t>* indices = outgoing_indices(normalize_ref(u));
  if (indices == nullptr) return {};
  std::vector<const Arc*> out;
  for (std::size_t i : *indices) {
    if (arcs_[i].arcrole == arcrole) out.push_back(&arcs_[i]);
  }
  return out;
}

void TraversalGraph::merge(const TraversalGraph& other) {
  if (&other == this) {
    const TraversalGraph copy = other;
    merge(copy);
    return;
  }
  const std::size_t offset = arcs_.size();
  arcs_.insert(arcs_.end(), other.arcs_.begin(), other.arcs_.end());
  // Every appended index is above every existing one, so appending
  // other's (sorted) buckets keeps each bucket in document order.
  auto append = [offset](auto& into, const auto& from) {
    for (const auto& [uri, indices] : from) {
      std::vector<std::size_t>& bucket = into[uri];
      bucket.reserve(bucket.size() + indices.size());
      for (std::size_t i : indices) bucket.push_back(offset + i);
    }
  };
  append(by_from_, other.by_from_);
  append(by_to_, other.by_to_);
}

// --- linkbase discovery --------------------------------------------------------

std::vector<std::string> find_linkbase_references(const xml::Document& doc) {
  std::vector<std::string> out;
  LinkCollection links = extract(doc);
  auto add = [&](std::string_view href) {
    if (href.empty()) return;
    out.push_back(uri::resolve(doc.base_uri(), href));
  };
  for (const auto& s : links.simple) {
    if (s.arcrole == kLinkbaseArcrole) add(s.href);
  }
  for (const auto& x : links.extended) {
    for (const auto& arc_spec : x.arcs) {
      if (arc_spec.arcrole != kLinkbaseArcrole) continue;
      // The to-side locators carry the linkbase URIs.
      for (const auto& loc : x.locators) {
        if (arc_spec.to.empty() || loc.label == arc_spec.to) add(loc.href);
      }
    }
  }
  return out;
}

TraversalGraph load_with_linkbases(
    const xml::Document& doc,
    const std::function<const xml::Document*(std::string_view uri)>& fetch) {
  TraversalGraph graph = TraversalGraph::from_linkbase(doc);
  std::set<std::string> loaded;
  loaded.insert(normalize_document_uri(doc.base_uri()));

  std::vector<const xml::Document*> frontier{&doc};
  while (!frontier.empty()) {
    const xml::Document* current = frontier.back();
    frontier.pop_back();
    for (const std::string& ref : find_linkbase_references(*current)) {
      std::string key = normalize_document_uri(ref);
      if (!loaded.insert(std::move(key)).second) continue;
      const xml::Document* next = fetch ? fetch(ref) : nullptr;
      if (next == nullptr) continue;
      graph.merge(TraversalGraph::from_linkbase(*next));
      frontier.push_back(next);
    }
  }
  return graph;
}

bool arcrole_matches(std::string_view arcrole, std::string_view role) {
  if (arcrole == role) return true;
  constexpr std::string_view kPrefix = "nav:";
  return arcrole.size() == kPrefix.size() + role.size() &&
         arcrole.substr(0, kPrefix.size()) == kPrefix &&
         arcrole.substr(kPrefix.size()) == role;
}

bool is_traversable(const Arc& arc) noexcept {
  return arc.show != Show::None && arc.actuate != Actuate::None;
}

}  // namespace navsep::xlink
