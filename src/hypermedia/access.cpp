#include "hypermedia/access.hpp"

namespace navsep::hypermedia {

std::string_view to_string(AccessStructureKind k) noexcept {
  switch (k) {
    case AccessStructureKind::Index: return "Index";
    case AccessStructureKind::GuidedTour: return "GuidedTour";
    case AccessStructureKind::IndexedGuidedTour: return "IndexedGuidedTour";
    case AccessStructureKind::Menu: return "Menu";
  }
  return "?";
}

std::string AccessStructure::page_id() const { return "index:" + name_; }

std::vector<AccessArc> Index::arcs() const {
  std::vector<AccessArc> out;
  out.reserve(members_.size() * 2);
  const std::string page = page_id();
  for (const Member& m : members_) {
    out.push_back(AccessArc{page, m.node_id, std::string(roles::kIndexEntry),
                            m.title});
    out.push_back(
        AccessArc{m.node_id, page, std::string(roles::kUp), "Index"});
  }
  return out;
}

std::vector<AccessArc> GuidedTour::arcs() const {
  std::vector<AccessArc> out;
  if (members_.empty()) return out;
  for (std::size_t i = 0; i + 1 < members_.size(); ++i) {
    out.push_back(AccessArc{members_[i].node_id, members_[i + 1].node_id,
                            std::string(roles::kNext),
                            "Next: " + members_[i + 1].title});
    out.push_back(AccessArc{members_[i + 1].node_id, members_[i].node_id,
                            std::string(roles::kPrev),
                            "Previous: " + members_[i].title});
  }
  if (circular_ && members_.size() > 1) {
    out.push_back(AccessArc{members_.back().node_id, members_.front().node_id,
                            std::string(roles::kNext),
                            "Next: " + members_.front().title});
    out.push_back(AccessArc{members_.front().node_id, members_.back().node_id,
                            std::string(roles::kPrev),
                            "Previous: " + members_.back().title});
  }
  return out;
}

std::string GuidedTour::entry() const {
  if (members_.empty()) {
    throw SemanticError("guided tour '" + name_ + "' has no members");
  }
  return members_.front().node_id;
}

std::vector<AccessArc> IndexedGuidedTour::arcs() const {
  // Index star...
  std::vector<AccessArc> out = Index(name_, members_).arcs();
  // ...plus the tour chain (the "two bold lines" of the paper's Figure 4,
  // repeated on every member page).
  GuidedTour tour(name_, members_);
  std::vector<AccessArc> chain = tour.arcs();
  out.insert(out.end(), std::make_move_iterator(chain.begin()),
             std::make_move_iterator(chain.end()));
  return out;
}

Menu::Menu(std::string name,
           std::vector<std::unique_ptr<AccessStructure>> sub_structures)
    : AccessStructure(std::move(name), {}), subs_(std::move(sub_structures)) {
  for (const auto& sub : subs_) {
    members_.push_back(Member{sub->entry(), sub->name()});
  }
}

std::vector<AccessArc> Menu::arcs() const {
  std::vector<AccessArc> out;
  const std::string page = page_id();
  for (const auto& sub : subs_) {
    out.push_back(AccessArc{page, sub->entry(),
                            std::string(roles::kMenuEntry), sub->name()});
    out.push_back(
        AccessArc{sub->entry(), page, std::string(roles::kUp), "Menu"});
    std::vector<AccessArc> inner = sub->arcs();
    out.insert(out.end(), std::make_move_iterator(inner.begin()),
               std::make_move_iterator(inner.end()));
  }
  return out;
}

namespace {

/// An arc with an empty from or to would be a linkbase arc with an empty
/// label, which XLink 1.0 §5.1.3 reads as every endpoint of the link.
void require_endpoints(const AccessArc& arc, std::size_t index) {
  if (arc.from.empty() || arc.to.empty()) {
    throw SemanticError("MaterializedStructure: arc " + std::to_string(index) +
                        " has an empty from or to");
  }
}

}  // namespace

std::unique_ptr<MaterializedStructure> MaterializedStructure::snapshot(
    const AccessStructure& structure) {
  std::vector<AccessArc> arcs = structure.arcs();
  for (std::size_t i = 0; i < arcs.size(); ++i) require_endpoints(arcs[i], i);
  return std::make_unique<MaterializedStructure>(
      structure.name(), structure.kind(), structure.members(),
      std::move(arcs), structure.entry());
}

void MaterializedStructure::replace_arc(std::size_t index, AccessArc arc) {
  if (index >= arcs_.size()) {
    throw SemanticError("MaterializedStructure::replace_arc: index " +
                        std::to_string(index) + " out of range (have " +
                        std::to_string(arcs_.size()) + " arcs)");
  }
  require_endpoints(arc, index);
  arcs_[index] = std::move(arc);
}

std::unique_ptr<AccessStructure> make_access_structure(
    AccessStructureKind kind, std::string name, std::vector<Member> members) {
  switch (kind) {
    case AccessStructureKind::Index:
      return std::make_unique<Index>(std::move(name), std::move(members));
    case AccessStructureKind::GuidedTour:
      return std::make_unique<GuidedTour>(std::move(name), std::move(members));
    case AccessStructureKind::IndexedGuidedTour:
      return std::make_unique<IndexedGuidedTour>(std::move(name),
                                                 std::move(members));
    case AccessStructureKind::Menu:
      throw SemanticError(
          "Menu requires sub-structures; construct hypermedia::Menu directly");
  }
  throw SemanticError("unknown access structure kind");
}

}  // namespace navsep::hypermedia
