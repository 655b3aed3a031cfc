// VirtualSite: the artifact store a built museum site lives in, and the
// builders that produce it both ways (tangled vs separated).
//
// Substitution 2 from DESIGN.md: 2002 browsers could not process XLink, so
// the paper could not demonstrate the woven result. We build the whole
// consumer chain in-process — site → server → browser — which keeps the
// experiments deterministic and network-free.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/migration.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "museum/museum.hpp"

namespace navsep::site {

class VirtualSite {
 public:
  void put(std::string path, std::string content);

  /// Remove one artifact. Returns false when the path was absent.
  /// Responses already handed out stay readable — content is shared, not
  /// freed, while anyone still holds it.
  bool remove(std::string_view path);

  [[nodiscard]] const std::string* get(std::string_view path) const;

  /// Shared-ownership handle on one artifact's content (null when
  /// absent). put()/remove() never mutate a published string — they swap
  /// the slot — so a held handle stays byte-stable for its lifetime.
  /// This is what snapshots and response caches hold.
  [[nodiscard]] std::shared_ptr<const std::string> get_shared(
      std::string_view path) const;

  [[nodiscard]] bool contains(std::string_view path) const {
    return get(path) != nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return files_.size(); }
  [[nodiscard]] std::size_t total_bytes() const noexcept;
  [[nodiscard]] std::vector<std::string> paths() const;

  /// Sorted (path, shared content) pairs in site order — the cheap
  /// whole-site view a snapshot is built from (bodies are shared, not
  /// copied).
  [[nodiscard]] std::vector<
      std::pair<std::string, std::shared_ptr<const std::string>>>
  shared_artifacts() const;

  /// Sorted (path, content) pairs — the diffable artifact set.
  [[nodiscard]] std::vector<core::Artifact> artifacts() const;

 private:
  std::map<std::string, std::shared_ptr<const std::string>, std::less<>>
      files_;
};

struct SiteBuildOptions {
  /// Absolute base the site is served under; linkbase hrefs resolve
  /// against `<site_base>links.xml`.
  std::string site_base = "http://museum.example/site/";

  /// Context families to author alongside the access structure: each
  /// becomes its own contextual linkbase artifact
  /// ("links-<family>.xml") whose tour arcs carry nav:context tags.
  /// Borrowed; must outlive the call.
  std::vector<const hypermedia::ContextFamily*> context_families;

  /// Weave every context family's tours into the stored pages as labeled
  /// per-context tour groups (core::NavigationAspectOptions::
  /// woven_context_families = each family in context_families), instead
  /// of reserving them for in-context on-demand composition. This is the
  /// profile-scoped full build — the single-threaded oracle the
  /// serve-time navigation overlays are byte-compared against
  /// (tests/overlay_test.cpp): build with exactly one nav::Profile's
  /// families and this flag on, and the result is what that profile must
  /// be served.
  bool weave_context_tours = false;
};

/// Site path of the access structure's own linkbase. The single source
/// of truth shared by the builder, the engine's arc provenance tags, and
/// the snapshot's overlay slice partition — which silently loses every
/// structure arc if the spellings drift.
inline constexpr std::string_view kStructureLinkbasePath = "links.xml";

/// Site path of a context family's linkbase ("links-byauthor.xml").
[[nodiscard]] std::string context_linkbase_path(std::string_view family_name);

/// The linkbase synthesis options the separated builder authors the
/// linkbase at site path `path` with: base URI `site_base` + `path`, and
/// locator hrefs at the *rendered pages*, since site-level navigation runs
/// between them. Shared with the engine and the snapshots, so every
/// linkbase they author is byte-identical to a full build's.
[[nodiscard]] core::LinkbaseOptions separated_linkbase_options(
    std::string_view site_base, std::string_view path);

/// Put the separated site's navigation-independent authored artifacts —
/// the data XML documents, presentation.xsl, museum.css — into `out`.
/// Shared by build_separated_site and the engine's serve() seeding so the
/// two cannot drift.
void author_fixed_artifacts(VirtualSite& out, const museum::MuseumWorld& world);

/// Build the separated museum site for one access structure: authored
/// artifacts (data XML per entity, links.xml, presentation.xsl,
/// museum.css) plus the woven HTML pages.
[[nodiscard]] VirtualSite build_separated_site(
    const museum::MuseumWorld& world,
    const hypermedia::AccessStructure& structure,
    const SiteBuildOptions& options = {});

/// Build the tangled museum site: HTML pages with embedded navigation
/// (and the css). There are no separated artifacts to author, and the
/// tangled baseline has no contextual navigation: it takes no context
/// families and no site base.
[[nodiscard]] VirtualSite build_tangled_site(
    const museum::MuseumWorld& world,
    const hypermedia::AccessStructure& structure);

}  // namespace navsep::site
