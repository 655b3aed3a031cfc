#include "serve/snapshot.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/linkbase.hpp"
#include "html/html.hpp"
#include "nav/landmarks.hpp"
#include "uri/uri.hpp"
#include "xlink/model.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace navsep::serve {

namespace {

const std::vector<SnapshotArc> kNoArcs{};

/// Hash of a profile's family-name list (order-sensitive — family order
/// is compose order).
std::uint64_t profile_token(const nav::Profile& profile) {
  std::uint64_t token = 0x70f17e5ull;
  for (const std::string& name : profile.families) {
    token = hash_combine(token, hash_bytes(name));
  }
  return token;
}

/// Slice hash of `path` within one chunk (null chunk = the source
/// authored no arcs; missing page = empty slice).
std::uint64_t slice_hash_for(const core::ArcChunk* chunk,
                             std::string_view path) {
  return chunk == nullptr ? core::kEmptySliceHash : chunk->slice_hash(path);
}

/// The woven navigation container's opening tag, byte-exact as the HTML
/// writer emits it (class is its only attribute) — derived from the
/// shared default class so the weave and the splice cannot drift.
const std::string kNavOpen =
    "<div class=\"" + std::string(core::kDefaultNavContainerClass) + "\">";
constexpr std::string_view kDivOpen = "<div";
constexpr std::string_view kDivClose = "</div>";

/// [begin, end) byte range of the woven navigation container inside a
/// serialized page, balancing nested `<div>`s; npos/npos when absent.
std::pair<std::size_t, std::size_t> navigation_block_range(
    const std::string& page) {
  const std::size_t begin = page.find(kNavOpen);
  if (begin == std::string::npos) return {std::string::npos, std::string::npos};
  std::size_t pos = begin + kNavOpen.size();
  std::size_t depth = 1;
  while (depth > 0) {
    const std::size_t open = page.find(kDivOpen, pos);
    const std::size_t close = page.find(kDivClose, pos);
    if (close == std::string::npos) {
      // Unbalanced markup cannot come out of the HTML writer; treat the
      // page as having no spliceable block rather than corrupting it.
      return {std::string::npos, std::string::npos};
    }
    // "</div>" starts with "</", so a "<div" hit is always a genuine
    // nested open, never the close's prefix.
    if (open != std::string::npos && open < close) {
      ++depth;
      pos = open + kDivOpen.size();
    } else {
      --depth;
      pos = close + kDivClose.size();
    }
  }
  return {begin, pos};
}

}  // namespace

SiteSnapshot::SiteSnapshot(const site::VirtualSite& site,
                           const xlink::TraversalGraph& graph,
                           std::string base, std::uint64_t epoch,
                           SnapshotOverlayInputs overlays)
    : epoch_(epoch), base_(std::move(base)) {
  if (!base_.empty() && base_.back() != '/') base_ += '/';
  normalized_base_ = uri::normalize(uri::parse(base_)).to_string();
  for (auto& [path, body] : site.shared_artifacts()) {
    files_.emplace(path, std::move(body));
  }
  // Materialize arcs by value, walking the graph's source index: its
  // keys are already normalized (the key is every bucket arc's `from`)
  // and each bucket is in linkbase document order, which we preserve.
  // Each distinct target is normalized once per capture.
  std::unordered_map<std::string_view, std::string> targets;
  for (std::string& from : graph.resource_uris()) {
    const std::vector<std::size_t>* outgoing = graph.outgoing_indices(from);
    if (outgoing == nullptr) continue;
    std::vector<SnapshotArc> bucket;
    bucket.reserve(outgoing->size());
    for (std::size_t i : *outgoing) {
      const xlink::Arc& arc = graph.arcs()[i];
      auto [to, fresh] = targets.try_emplace(arc.to.uri);
      if (fresh) to->second = xlink::normalize_ref(arc.to.uri);
      bucket.push_back(SnapshotArc{from, to->second, arc.arcrole, arc.title,
                                   xlink::is_traversable(arc)});
    }
    arcs_by_from_.emplace_hint(arcs_by_from_.end(), std::move(from),
                               std::move(bucket));
  }

  init_overlays(std::move(overlays));
}

SiteSnapshot::SiteSnapshot(SnapshotState state)
    : epoch_(state.epoch), base_(std::move(state.base)) {
  if (!base_.empty() && base_.back() != '/') base_ += '/';
  normalized_base_ = uri::normalize(uri::parse(base_)).to_string();
  files_ = std::move(state.files);
  arcs_by_from_ = std::move(state.arcs_by_from);
  init_overlays(std::move(state.overlays));
}

void SiteSnapshot::init_overlays(SnapshotOverlayInputs overlays) {
  profiles_ = std::move(overlays.profiles);
  structure_source_ = std::move(overlays.structure_source);
  route_table_ = std::move(overlays.routes);
  overlay_arcs_ = std::move(overlays.arcs);
  std::erase_if(overlay_arcs_, [](const auto& chunk) {
    return chunk == nullptr || chunk->arcs.empty();
  });
  // A chunk of a source that is neither the structure nor a family is
  // carried but not servable.
  structure_chunk_ = core::find_chunk(overlay_arcs_, structure_source_);
  families_.reserve(overlays.families.size());
  for (SnapshotOverlayInputs::Family& family : overlays.families) {
    std::shared_ptr<const core::ArcChunk> chunk =
        core::find_chunk(overlay_arcs_, family.source);
    families_.push_back(FamilySlice{std::move(family.name),
                                    std::move(family.source),
                                    std::move(chunk)});
  }
}

SourceSliceHashes SiteSnapshot::slice_hashes() const {
  SourceSliceHashes index;
  for (const std::shared_ptr<const core::ArcChunk>& chunk : overlay_arcs_) {
    index.emplace(chunk->source, std::shared_ptr<const core::PageSliceHashes>(
                                     chunk, &chunk->slice_hashes));
  }
  return index;
}

std::vector<SnapshotOverlayInputs::Family> SiteSnapshot::overlay_families()
    const {
  std::vector<SnapshotOverlayInputs::Family> out;
  out.reserve(families_.size());
  for (const FamilySlice& family : families_) {
    out.push_back(SnapshotOverlayInputs::Family{family.name, family.source});
  }
  return out;
}

const nav::Profile* SiteSnapshot::find_profile(
    std::string_view name) const noexcept {
  for (const nav::Profile& profile : profiles_) {
    if (profile.name == name) return &profile;
  }
  return nullptr;
}

std::vector<const core::NavArc*> SiteSnapshot::profile_arcs(
    std::string_view path, const nav::Profile& profile) const {
  std::vector<const core::NavArc*> out;
  const auto append = [&](const core::ArcChunk* chunk) {
    if (chunk == nullptr) return;
    if (const std::vector<const core::NavArc*>* arcs = chunk->leaving(path)) {
      out.insert(out.end(), arcs->begin(), arcs->end());
    }
  };
  append(structure_chunk_.get());
  for (const std::string& family_name : profile.families) {
    auto family = std::find_if(
        families_.begin(), families_.end(),
        [&](const FamilySlice& f) { return f.name == family_name; });
    if (family != families_.end()) {
      append(family->chunk.get());
      continue;
    }
    // Not an authored family: a Lazy route program composes exactly like
    // one, from its memoized expansion (the slice outlives the returned
    // pointers — the snapshot pins it in route_slices_).
    if (std::shared_ptr<const RouteSlice> route =
            lazy_route_slice(family_name)) {
      append(route->chunk.get());
    }
  }
  return out;
}

OverlayValidity SiteSnapshot::overlay_validity(const nav::Profile& profile,
                                               std::string_view path) const {
  OverlayValidity validity;
  validity.base_body = body(path);
  validity.profile_token = profile_token(profile);
  validity.structure_slice = slice_hash_for(structure_chunk_.get(), path);
  if (validity.base_body == nullptr && route_table_ != nullptr) {
    // A Lazy route's linkbase artifact has no stored base bytes; its
    // synthesized content hash stands in for the structure slice
    // (compared by value, so an epoch whose re-expansion produces
    // identical bytes keeps the cached entry alive).
    for (const RouteTable::Entry& entry : route_table_->entries) {
      if (entry.program.compile != nav::RouteCompile::Lazy ||
          entry.source != path) {
        continue;
      }
      if (std::shared_ptr<const RouteSlice> route =
              lazy_route_slice(entry.program.name)) {
        validity.structure_slice = hash_bytes(*route->text);
      }
      break;
    }
  }
  validity.family_slices.reserve(profile.families.size());
  for (const std::string& family_name : profile.families) {
    auto it = std::find_if(
        families_.begin(), families_.end(),
        [&](const FamilySlice& f) { return f.name == family_name; });
    if (it != families_.end()) {
      validity.family_slices.push_back(slice_hash_for(it->chunk.get(), path));
      continue;
    }
    // A Lazy route program's validity is its program token folded with
    // the expansion's per-page slice hash: editing the program retires
    // every entry, a family edit retires only pages whose expanded
    // slice changed (the ISSUE's cache-economics contract).
    if (std::shared_ptr<const RouteSlice> route =
            lazy_route_slice(family_name)) {
      validity.family_slices.push_back(
          hash_combine(route->token, route->chunk->slice_hash(path)));
      continue;
    }
    validity.family_slices.push_back(kUnknownSliceHash);
  }
  return validity;
}

std::shared_ptr<const SiteSnapshot::RouteSlice> SiteSnapshot::lazy_route_slice(
    std::string_view name) const {
  if (route_table_ == nullptr) return nullptr;
  const RouteTable::Entry* entry = nullptr;
  for (const RouteTable::Entry& e : route_table_->entries) {
    if (e.program.compile == nav::RouteCompile::Lazy &&
        e.program.name == name) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) return nullptr;

  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    auto it = route_slices_.find(name);
    if (it != route_slices_.end()) return it->second;
  }

  // Expand outside the lock — a pure function of immutable snapshot
  // state, so racing readers compute identical slices (first insert
  // wins below). Route and landmark chunks never feed route expansion:
  // programs are defined over the authored navigation — the structure
  // and the context families — exactly as the engine's AOT path
  // expands them.
  core::ArcChunks authored;
  if (structure_chunk_ != nullptr) authored.push_back(structure_chunk_);
  for (const FamilySlice& family : families_) {
    const bool generated =
        nav::is_landmark_family(family.name) ||
        std::any_of(route_table_->entries.begin(), route_table_->entries.end(),
                    [&](const RouteTable::Entry& e) {
                      return e.source == family.source;
                    });
    if (family.chunk != nullptr && !generated) authored.push_back(family.chunk);
  }
  hypermedia::ContextFamily family = nav::route_context_family(
      entry->program.name, nav::parse_route(entry->program.expression),
      authored);

  // Author the linkbase through THE context-linkbase producer (the same
  // call the engine's AOT rebuild makes), then round-trip it through the
  // parser like the weave path does — both sides' arc values come from
  // the authored bytes, so they cannot drift.
  core::LinkbaseOptions lb;
  lb.base_uri = base_ + entry->source;
  lb.data_href = [](std::string_view id) {
    return core::default_href_for(id);
  };
  lb.structure_href = [](std::string_view id) {
    return core::default_href_for(id);
  };
  const auto& titles = route_table_->titles;
  std::unique_ptr<xml::Document> doc = core::build_context_linkbase(
      family,
      [&titles](std::string_view id) {
        auto it = titles.find(id);
        return it == titles.end() ? std::string(id) : it->second;
      },
      lb);

  auto slice = std::make_shared<RouteSlice>();
  slice->token = nav::route_token(entry->program);
  slice->text =
      std::make_shared<const std::string>(xml::write(*doc, {.pretty = true}));
  std::unique_ptr<xml::Document> parsed = xml::parse(*slice->text);
  xlink::TraversalGraph graph = core::load_linkbase(*parsed);
  slice->chunk = core::make_arc_chunk(
      entry->source, core::combined_nav_arcs({{entry->source, &graph}}));

  std::lock_guard<std::mutex> lock(route_mutex_);
  auto [it, inserted] = route_slices_.emplace(std::string(name), slice);
  return it->second;
}

std::shared_ptr<const std::string> SiteSnapshot::overlay_body(
    std::string_view path, const std::shared_ptr<const std::string>& base,
    const nav::Profile& profile) const {
  const std::vector<const core::NavArc*> arcs = profile_arcs(path, profile);

  // Late-compose the navigation block through the same renderer the
  // weave uses — identical code path, identical bytes.
  xml::Element scratch{xml::QName("body")};
  core::NavigationAspectOptions options;
  options.woven_context_families = profile.families;
  const xml::Element* block = arcs.empty()
                                  ? nullptr
                                  : core::render_navigation(
                                        scratch, /*page_instance=*/path,
                                        /*current_context=*/"", arcs, options);
  if (block == nullptr) {
    // No arc applies under this profile; a full per-profile weave would
    // have produced no block either (base pages with a block always have
    // structure arcs, which every profile sees).
    return base;
  }
  const auto [begin, end] = navigation_block_range(*base);

  // The block sits two levels deep (html > body > div); serialize it at
  // that depth so the splice is byte-exact.
  const std::string fragment = html::write_at_depth(*block, 2);
  std::string spliced;
  if (begin != std::string::npos) {
    spliced.reserve(base->size() - (end - begin) + fragment.size());
    spliced.append(*base, 0, begin);
    spliced.append(fragment);
    spliced.append(*base, end, base->size() - end);
  } else {
    // The base page wove no block (no context-free arcs leave it): the
    // full weave appends it as the last child of <body>.
    static constexpr std::string_view kBodyClose = "\n  </body>";
    const std::size_t at = base->rfind(kBodyClose);
    if (at == std::string::npos) return base;  // not a page shape we weave
    spliced.reserve(base->size() + fragment.size() + 5);
    spliced.append(*base, 0, at);
    spliced.append("\n    ");
    spliced.append(fragment);
    spliced.append(*base, at, base->size() - at);
  }
  if (spliced == *base) return base;  // e.g. an empty-family profile
  return std::make_shared<const std::string>(std::move(spliced));
}

site::Response SiteSnapshot::respond_as(std::string_view profile_name,
                                        std::string_view uri_or_path,
                                        std::string* resolved_path) const {
  const nav::Profile* profile = find_profile(profile_name);
  if (profile == nullptr) {
    throw SemanticError("SiteSnapshot::respond_as: unknown profile '" +
                        std::string(profile_name) +
                        "' (register it on the engine first)");
  }
  return respond_as(*profile, uri_or_path, resolved_path);
}

site::Response SiteSnapshot::respond_as(const nav::Profile& profile,
                                        std::string_view uri_or_path,
                                        std::string* resolved_path) const {
  // One resolution path for plain and profile-scoped serving: delegate,
  // then apply the profile view on top of the resolved response.
  std::string path;
  site::Response r = respond(uri_or_path, &path);
  if (!r.ok()) {
    // A Lazy route's linkbase is not a stored artifact — it exists only
    // for profiles that include the route, synthesized on first touch
    // (the AOT build for such a profile would have authored it).
    std::optional<std::string> missing =
        site::site_path_under(uri_or_path, normalized_base_);
    if (route_table_ != nullptr && missing.has_value()) {
      for (const RouteTable::Entry& entry : route_table_->entries) {
        if (entry.source != *missing ||
            entry.program.compile != nav::RouteCompile::Lazy) {
          continue;
        }
        if (std::find(profile.families.begin(), profile.families.end(),
                      entry.program.name) == profile.families.end()) {
          break;  // excluded: stays 404, like an excluded family linkbase
        }
        if (std::shared_ptr<const RouteSlice> route =
                lazy_route_slice(entry.program.name)) {
          if (resolved_path != nullptr) *resolved_path = *missing;
          return site::Response{
              200, std::string(site::content_type_for(*missing)),
              route->text};
        }
      }
    }
    return r;
  }

  // A contextual linkbase outside the profile is not part of the
  // profile's site: a full build over only its families would never
  // author it.
  for (const FamilySlice& family : families_) {
    if (family.source != path) continue;
    if (std::find(profile.families.begin(), profile.families.end(),
                  family.name) == profile.families.end()) {
      return site::Response{404, "", nullptr};
    }
  }

  if (resolved_path != nullptr) *resolved_path = path;
  if (r.content_type == "text/html") {
    r.body = overlay_body(path, r.body, profile);
  }
  return r;
}

std::vector<std::string> SiteSnapshot::paths() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, _] : files_) out.push_back(path);
  return out;
}

std::shared_ptr<const std::string> SiteSnapshot::body(
    std::string_view path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : it->second;
}

site::Response SiteSnapshot::respond(std::string_view uri_or_path,
                                     std::string* resolved_path) const {
  std::optional<std::string> path =
      site::site_path_under(uri_or_path, normalized_base_);
  if (!path) return site::Response{404, "", nullptr};
  auto it = files_.find(*path);
  if (it == files_.end()) return site::Response{404, "", nullptr};
  if (resolved_path != nullptr) *resolved_path = *path;
  return site::Response{200, std::string(site::content_type_for(*path)),
                        it->second};
}

const std::vector<SnapshotArc>& SiteSnapshot::outgoing(
    std::string_view uri) const {
  std::string absolute = uri.find("://") != std::string_view::npos
                             ? std::string(uri)
                             : base_ + std::string(uri);
  auto it = arcs_by_from_.find(xlink::normalize_ref(absolute));
  return it == arcs_by_from_.end() ? kNoArcs : it->second;
}

const SnapshotArc* SiteSnapshot::outgoing_with_role(
    std::string_view uri, std::string_view role) const {
  for (const SnapshotArc& arc : outgoing(uri)) {
    if (xlink::arcrole_matches(arc.arcrole, role)) return &arc;
  }
  return nullptr;
}

void SnapshotStore::publish(std::shared_ptr<const SiteSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw SemanticError("SnapshotStore::publish: null snapshot");
  }
  const std::uint64_t next = snapshot->epoch();
  if (next <= epoch_.load(std::memory_order_relaxed)) {
    throw SemanticError(
        "SnapshotStore::publish: epoch must advance (publishing " +
        std::to_string(next) + " over " +
        std::to_string(epoch_.load(std::memory_order_relaxed)) + ")");
  }
#if NAVSEP_ATOMIC_SHARED_PTR
  current_.store(std::move(snapshot), std::memory_order_release);
#else
  std::atomic_store_explicit(&current_, std::move(snapshot),
                             std::memory_order_release);
#endif
  // The epoch is published AFTER the snapshot: a cache that reads epoch
  // N is guaranteed current() already returns the epoch-N snapshot (it
  // may even be newer — harmless, the entry just retires one probe
  // early... never late).
  epoch_.store(next, std::memory_order_release);
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const SiteSnapshot> SnapshotStore::current() const {
#if NAVSEP_ATOMIC_SHARED_PTR
  return current_.load(std::memory_order_acquire);
#else
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
#endif
}

}  // namespace navsep::serve
