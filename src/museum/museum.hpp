// The museum application: the paper's running example, plus a seeded
// synthetic generator for scaling benchmarks.
//
// Domain (conceptual schema):
//   Painter  {name, born, nationality}
//   Painting {title, year, technique, movement}
//   Movement {title, period}
//   painted     : Painter  -> Painting (inverse painted-by)
//   member-of   : Painting -> Movement (inverse gathers)
//
// The paper instance reproduces the artifacts of Figures 3/4/7/8/9:
// Picasso with The Guitar / Guernica / Les Demoiselles d'Avignon, the
// cubism movement, and the "paintings by Picasso" navigational context.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/migration.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "hypermedia/conceptual.hpp"
#include "hypermedia/navigational.hpp"
#include "xml/dom.hpp"

namespace navsep::museum {

/// Parameters of the synthetic museum.
struct SyntheticSpec {
  std::size_t painters = 10;
  std::size_t paintings_per_painter = 5;  // exact count per painter
  std::size_t movements = 3;
  std::uint64_t seed = 42;
};

/// Owns the museum's schemas and conceptual instances. Address-stable by
/// design (the model points into the schema), hence non-movable; create on
/// the heap via the factories.
class MuseumWorld {
 public:
  MuseumWorld(const MuseumWorld&) = delete;
  MuseumWorld& operator=(const MuseumWorld&) = delete;

  /// The exact instance the paper's figures use.
  [[nodiscard]] static std::unique_ptr<MuseumWorld> paper_instance();

  /// A deterministic synthetic museum of the given size.
  [[nodiscard]] static std::unique_ptr<MuseumWorld> synthetic(
      const SyntheticSpec& spec);

  [[nodiscard]] const hypermedia::ConceptualModel& conceptual() const noexcept {
    return model_;
  }
  [[nodiscard]] const hypermedia::NavigationalSchema& navigation_schema()
      const noexcept {
    return nav_schema_;
  }

  /// Instantiate the navigational model (PainterNode/PaintingNode views).
  [[nodiscard]] hypermedia::NavigationalModel derive_navigation() const;

  // --- contexts (paper §2) ----------------------------------------------------

  /// "Paintings by author X", one context per painter.
  [[nodiscard]] hypermedia::ContextFamily by_author(
      const hypermedia::NavigationalModel& nav) const;

  /// "Paintings of movement M", one context per movement.
  [[nodiscard]] hypermedia::ContextFamily by_movement(
      const hypermedia::NavigationalModel& nav) const;

  // --- access structures -----------------------------------------------------

  /// An access structure over one painter's paintings (the paper's
  /// example: Index first, IndexedGuidedTour after the change request).
  [[nodiscard]] std::unique_ptr<hypermedia::AccessStructure>
  paintings_structure(hypermedia::AccessStructureKind kind,
                      const hypermedia::NavigationalModel& nav,
                      std::string_view painter_id) const;

  /// An access structure over every painting in the museum.
  [[nodiscard]] std::unique_ptr<hypermedia::AccessStructure>
  all_paintings_structure(hypermedia::AccessStructureKind kind,
                          const hypermedia::NavigationalModel& nav) const;

  // --- data documents (Figures 7/8) -------------------------------------------

  /// picasso.xml: a painter document with nested painting summaries.
  [[nodiscard]] std::unique_ptr<xml::Document> painter_document(
      std::string_view painter_id) const;

  /// avignon.xml: a single painting's detail document.
  [[nodiscard]] std::unique_ptr<xml::Document> painting_document(
      std::string_view painting_id) const;

  /// Every data artifact of the separated site: one XML file per painter
  /// plus one per painting (path → serialized content).
  [[nodiscard]] std::vector<core::Artifact> data_artifacts() const;

  /// Painter ids in creation order.
  [[nodiscard]] std::vector<std::string> painter_ids() const;
  [[nodiscard]] std::vector<std::string> painting_ids() const;

  // --- fixed presentation artifacts -------------------------------------------

  /// The XSLT stylesheet that would render painter/painting documents to
  /// navigation-free HTML content. The site serves it as authored bytes:
  /// core::renderer composes the pages, and navsep runs no XSLT.
  [[nodiscard]] static std::string presentation_xslt();

  /// The site CSS, referenced by every page and served as authored bytes.
  [[nodiscard]] static std::string site_css();

 private:
  MuseumWorld();

  hypermedia::ConceptualSchema schema_;
  hypermedia::ConceptualModel model_;
  hypermedia::NavigationalSchema nav_schema_;
};

}  // namespace navsep::museum
