// Access structures: OOHDM's "alternative ways to navigate".
//
// The paper's worked example revolves around two of these (its Figure 2):
//   * Index             — a star: an index page fans out to every member,
//                         each member links back up to the index;
//   * IndexedGuidedTour — the index star *plus* a next/previous chain
//                         threading the members in context order.
// We also provide the plain GuidedTour (chain only) and Menu (an index of
// indexes) that HDM/OOHDM describe, so navigation designs beyond the
// paper's can be expressed and benchmarked.
//
// An access structure is *declarative*: it owns an ordered member list and
// materializes navigation arcs on demand. Everything downstream (the XLink
// linkbase, the tangled renderer, the weaving aspect) consumes those arcs.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace navsep::hypermedia {

enum class AccessStructureKind { Index, GuidedTour, IndexedGuidedTour, Menu };

[[nodiscard]] std::string_view to_string(AccessStructureKind k) noexcept;

/// Arc roles used by every access structure. These become XLink arcrole
/// values (prefixed "nav:") in the linkbase and CSS classes in pages.
namespace roles {
inline constexpr std::string_view kIndexEntry = "index-entry";
inline constexpr std::string_view kUp = "up";
inline constexpr std::string_view kNext = "next";
inline constexpr std::string_view kPrev = "prev";
inline constexpr std::string_view kMenuEntry = "menu-entry";
inline constexpr std::string_view kFirst = "first";
}  // namespace roles

/// One materialized navigation arc between node ids (or the structure's
/// own entry page, e.g. "index:paintings").
struct AccessArc {
  std::string from;
  std::string to;
  std::string role;        // one of roles::*
  std::string title;       // human label for the anchor
};

/// A member of an access structure: the node it reaches plus its label.
struct Member {
  std::string node_id;
  std::string title;
};

/// Base interface. Concrete structures are created through the factory
/// functions below (or constructed directly).
class AccessStructure {
 public:
  AccessStructure(std::string name, std::vector<Member> members)
      : name_(std::move(name)), members_(std::move(members)) {}
  virtual ~AccessStructure() = default;

  AccessStructure(const AccessStructure&) = delete;
  AccessStructure& operator=(const AccessStructure&) = delete;

  [[nodiscard]] virtual AccessStructureKind kind() const noexcept = 0;

  /// Materialize every arc of the structure.
  [[nodiscard]] virtual std::vector<AccessArc> arcs() const = 0;

  /// The id of the structure's entry resource: the index/menu page for
  /// Index/Menu, the first member for tours.
  [[nodiscard]] virtual std::string entry() const = 0;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<Member>& members() const noexcept {
    return members_;
  }

  /// The synthetic id of this structure's own page ("index:<name>").
  [[nodiscard]] std::string page_id() const;

 protected:
  std::string name_;
  std::vector<Member> members_;
};

/// Index: entry page fans out to members; members link back up.
class Index final : public AccessStructure {
 public:
  using AccessStructure::AccessStructure;
  [[nodiscard]] AccessStructureKind kind() const noexcept override {
    return AccessStructureKind::Index;
  }
  [[nodiscard]] std::vector<AccessArc> arcs() const override;
  [[nodiscard]] std::string entry() const override { return page_id(); }
};

/// GuidedTour: next/prev chain through the members; no index page.
class GuidedTour final : public AccessStructure {
 public:
  GuidedTour(std::string name, std::vector<Member> members,
             bool circular = false)
      : AccessStructure(std::move(name), std::move(members)),
        circular_(circular) {}
  [[nodiscard]] AccessStructureKind kind() const noexcept override {
    return AccessStructureKind::GuidedTour;
  }
  [[nodiscard]] std::vector<AccessArc> arcs() const override;
  [[nodiscard]] std::string entry() const override;
  [[nodiscard]] bool circular() const noexcept { return circular_; }

 private:
  bool circular_;
};

/// IndexedGuidedTour: the paper's Figure 2(b) — index star + tour chain.
class IndexedGuidedTour final : public AccessStructure {
 public:
  using AccessStructure::AccessStructure;
  [[nodiscard]] AccessStructureKind kind() const noexcept override {
    return AccessStructureKind::IndexedGuidedTour;
  }
  [[nodiscard]] std::vector<AccessArc> arcs() const override;
  [[nodiscard]] std::string entry() const override { return page_id(); }
};

/// Menu: a two-level index — the menu page links to sub-structures'
/// entry pages.
class Menu final : public AccessStructure {
 public:
  Menu(std::string name,
       std::vector<std::unique_ptr<AccessStructure>> sub_structures);
  [[nodiscard]] AccessStructureKind kind() const noexcept override {
    return AccessStructureKind::Menu;
  }
  [[nodiscard]] std::vector<AccessArc> arcs() const override;
  [[nodiscard]] std::string entry() const override { return page_id(); }
  [[nodiscard]] const std::vector<std::unique_ptr<AccessStructure>>&
  sub_structures() const noexcept {
    return subs_;
  }

 private:
  std::vector<std::unique_ptr<AccessStructure>> subs_;
};

/// Factory: build a structure of `kind` over `members`. Menu cannot be
/// built through this factory (it needs sub-structures) — requesting it
/// throws navsep::SemanticError.
[[nodiscard]] std::unique_ptr<AccessStructure> make_access_structure(
    AccessStructureKind kind, std::string name, std::vector<Member> members);

/// A structure whose arc set is explicit data rather than derived from a
/// kind: kind, members, arcs and entry are all stored. This is what a
/// linkbase *is* once authored — and therefore the natural substrate for
/// runtime navigation edits: snapshot any structure, then replace
/// individual arcs without inventing a new AccessStructure subclass.
/// nav::Engine's mutation API keeps its live navigation design in one of
/// these.
class MaterializedStructure final : public AccessStructure {
 public:
  MaterializedStructure(std::string name, AccessStructureKind kind,
                        std::vector<Member> members,
                        std::vector<AccessArc> arcs, std::string entry)
      : AccessStructure(std::move(name), std::move(members)),
        kind_(kind),
        arcs_(std::move(arcs)),
        entry_(std::move(entry)) {}

  /// Freeze another structure's current members/arcs/entry. Kind-specific
  /// behavior (Menu sub-structures, tour circularity) is flattened into
  /// the materialized arc set. Throws navsep::SemanticError when an arc
  /// has an empty from or to (see replace_arc).
  [[nodiscard]] static std::unique_ptr<MaterializedStructure> snapshot(
      const AccessStructure& structure);

  [[nodiscard]] AccessStructureKind kind() const noexcept override {
    return kind_;
  }
  [[nodiscard]] std::vector<AccessArc> arcs() const override { return arcs_; }
  [[nodiscard]] std::string entry() const override { return entry_; }

  /// The stored arc list (no materialization cost, unlike arcs()).
  [[nodiscard]] const std::vector<AccessArc>& stored_arcs() const noexcept {
    return arcs_;
  }

  /// Replace the arc at `index`. Throws navsep::SemanticError, leaving
  /// the arcs as they were, when out of range or when the arc's from or
  /// to is empty: a linkbase arc with an empty label joins every endpoint
  /// of the link (XLink 1.0 §5.1.3), not one node.
  void replace_arc(std::size_t index, AccessArc arc);

 private:
  AccessStructureKind kind_;
  std::vector<AccessArc> arcs_;
  std::string entry_;
};

}  // namespace navsep::hypermedia
