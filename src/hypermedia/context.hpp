// Navigational contexts: OOHDM's primitive for organizing the navigation
// space into "consistent sets that can be traversed following a particular
// order" — the paper's §2 museum scenario: reaching a painting *through
// its author* puts it in the by-author context, where Next means "next
// painting by the same author"; reaching it *through a movement* puts it
// in the by-movement context, where Next resolves differently. Context is
// what makes navigation stateful.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hypermedia/navigational.hpp"

namespace navsep::hypermedia {

/// One context: an ordered set of node ids with a family tag.
class NavigationalContext {
 public:
  NavigationalContext(std::string family, std::string name,
                      std::vector<std::string> node_ids)
      : family_(std::move(family)),
        name_(std::move(name)),
        node_ids_(std::move(node_ids)) {}

  [[nodiscard]] const std::string& family() const noexcept { return family_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Fully qualified name "family:name" (used as context tag everywhere).
  [[nodiscard]] std::string qualified_name() const {
    return family_ + ":" + name_;
  }

  [[nodiscard]] const std::vector<std::string>& node_ids() const noexcept {
    return node_ids_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return node_ids_.size(); }

  /// 0-based position of a node, or nullopt when the node is outside the
  /// context.
  [[nodiscard]] std::optional<std::size_t> position_of(
      std::string_view node_id) const;

  /// Context-dependent successor / predecessor (nullopt at the ends or
  /// outside the context).
  [[nodiscard]] std::optional<std::string> next_of(
      std::string_view node_id) const;
  [[nodiscard]] std::optional<std::string> prev_of(
      std::string_view node_id) const;

  [[nodiscard]] bool contains(std::string_view node_id) const {
    return position_of(node_id).has_value();
  }

 private:
  std::string family_;
  std::string name_;
  std::vector<std::string> node_ids_;
};

/// A family of related contexts ("paintings by author X" for every X).
class ContextFamily {
 public:
  ContextFamily(std::string name, std::vector<NavigationalContext> contexts)
      : name_(std::move(name)), contexts_(std::move(contexts)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<NavigationalContext>& contexts() const
      noexcept {
    return contexts_;
  }

  [[nodiscard]] const NavigationalContext* find(std::string_view name) const;

  /// Replace the family's context set — the editing primitive behind
  /// nav::Engine::edit_context_family (re-author the family's
  /// contextual linkbase without touching anything else). Callers
  /// typically copy contexts(), adjust, and pass the result back.
  void replace_contexts(std::vector<NavigationalContext> contexts) {
    contexts_ = std::move(contexts);
  }

  /// Contexts of this family containing the node.
  [[nodiscard]] std::vector<const NavigationalContext*> containing(
      std::string_view node_id) const;

  // --- derivation from the navigational model --------------------------------

  /// One context per distinct value of `attribute` over the nodes of
  /// `node_class`; members ordered by model derivation order.
  /// E.g. group_by_attribute(model, "PaintingNode", "movement").
  [[nodiscard]] static ContextFamily group_by_attribute(
      const NavigationalModel& model, std::string_view node_class,
      std::string_view attribute, std::string family_name);

  /// One context per entity of `owner_class`, containing the nodes related
  /// through `relationship`. E.g. group_by_relation(model, "PainterNode",
  /// "painted", "ByAuthor") — "paintings by author X" for every painter X.
  [[nodiscard]] static ContextFamily group_by_relation(
      const NavigationalModel& model, std::string_view owner_class,
      std::string_view relationship, std::string family_name);

  /// A single context holding every node of a class, in model order.
  [[nodiscard]] static ContextFamily all_of_class(
      const NavigationalModel& model, std::string_view node_class,
      std::string family_name);

 private:
  std::string name_;
  std::vector<NavigationalContext> contexts_;
};

}  // namespace navsep::hypermedia
