// The linkbase producers pinned to the DOM authoring they replace.
//
// core::draft_linkbase and core::draft_context_linkbase emit a
// linkbase's locators and arcs straight from the model; write_linkbase
// prints the text and expand_linkbase derives the arc chunk and the
// traversal graph. For every case here the text must equal the
// reference document (tests/oracle.cpp, the element-by-element DOM
// authoring) pretty-printed, and the chunk and graph must equal what the
// XLink processor reads back from that text: load_linkbase of the
// parsed bytes, then combined_nav_arcs. The cases cover every structure
// kind and family the engine authors, and the inputs where XLink's
// reading of the text differs from the model's: self-arcs, arcs to
// non-members, repeated members and ids, empty links, escaped titles and
// ids that node_id_for does not map back to themselves.
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/linkbase.hpp"
#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "museum/museum.hpp"
#include "nav/pipeline.hpp"
#include "oracle.hpp"
#include "site/virtual_site.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace {

namespace core = navsep::core;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace oracle = navsep::testing;
using hm::AccessStructureKind;
using navsep::museum::MuseumWorld;

/// The options the engine and the site builder author with (hrefs are
/// the rendered pages), and the library defaults (data/<id>.xml and
/// <name>-index.xml), under `source`'s base URI.
std::vector<core::LinkbaseOptions> option_sets(std::string_view source) {
  const core::LinkbaseOptions site = navsep::site::separated_linkbase_options(
      "http://museum.example/site/", source);
  core::LinkbaseOptions defaults;
  defaults.base_uri = "http://museum.example/data/" + std::string(source);
  return {site, defaults};
}

/// The draft's text equals the reference pretty-printed; its chunk and
/// graph equal what the XLink processor reads back from that text.
void expect_matches_reference(const core::LinkbaseDraft& draft,
                              const navsep::xml::Document& reference,
                              const std::string& source) {
  const std::string want_text =
      navsep::xml::write(reference, {.pretty = true});
  const std::string text = core::write_linkbase(draft);
  EXPECT_EQ(text, want_text);

  navsep::xml::ParseOptions parse;
  parse.base_uri = reference.base_uri();
  const auto reparsed = navsep::xml::parse(want_text, parse);
  const navsep::xlink::TraversalGraph reloaded =
      core::load_linkbase(*reparsed);
  const std::shared_ptr<const core::ArcChunk> want_chunk =
      core::make_arc_chunk(source,
                           core::combined_nav_arcs({{source, &reloaded}}));

  const core::LinkbaseArcs got = core::expand_linkbase(draft, source);
  ASSERT_NO_FATAL_FAILURE(
      oracle::expect_same_chunks({want_chunk}, {got.chunk}));
  ASSERT_NO_FATAL_FAILURE(
      oracle::expect_same_traversal(reloaded, got.graph));
  EXPECT_EQ(got.graph.arcs().size(), reloaded.arcs().size());
}

void expect_structure_pinned(const hm::AccessStructure& structure) {
  SCOPED_TRACE(structure.name());
  const std::vector<hm::AccessArc> arcs = structure.arcs();
  for (const core::LinkbaseOptions& options : option_sets("links.xml")) {
    SCOPED_TRACE(options.base_uri);
    expect_matches_reference(core::draft_linkbase(structure, arcs, options),
                             *oracle::reference_linkbase(structure, options),
                             "links.xml");
  }
}

void expect_family_pinned(
    const hm::ContextFamily& family,
    const std::function<std::string(std::string_view)>& title_of) {
  SCOPED_TRACE(family.name());
  const std::string source = navsep::site::context_linkbase_path(family.name());
  for (const core::LinkbaseOptions& options : option_sets(source)) {
    SCOPED_TRACE(options.base_uri);
    expect_matches_reference(
        core::draft_context_linkbase(family, title_of, options),
        *oracle::reference_context_linkbase(family, title_of, options),
        source);
  }
}

/// Titles from a model, falling back to the id (the engine's rule).
std::function<std::string(std::string_view)> titles_of(
    const hm::NavigationalModel& model) {
  return [&model](std::string_view id) {
    const hm::NavNode* node = model.node(id);
    return node != nullptr ? node->title() : std::string(id);
  };
}

class LinkbaseDraft : public ::testing::Test {
 protected:
  LinkbaseDraft()
      : world_(MuseumWorld::paper_instance()),
        model_(world_->derive_navigation()) {}

  std::unique_ptr<hm::AccessStructure> picasso(AccessStructureKind kind) const {
    return world_->paintings_structure(kind, model_, "picasso");
  }

  std::unique_ptr<MuseumWorld> world_;
  hm::NavigationalModel model_;
};

}  // namespace

TEST_F(LinkbaseDraft, EveryStructureKind) {
  expect_structure_pinned(*picasso(AccessStructureKind::Index));
  expect_structure_pinned(*picasso(AccessStructureKind::IndexedGuidedTour));
  const std::vector<hm::Member> members = picasso(AccessStructureKind::Index)
                                              ->members();
  expect_structure_pinned(hm::GuidedTour("tour", members, false));
  expect_structure_pinned(hm::GuidedTour("ring", members, true));

  std::vector<std::unique_ptr<hm::AccessStructure>> subs;
  subs.push_back(std::make_unique<hm::Index>(
      "early", std::vector<hm::Member>(members.begin(), members.begin() + 2)));
  subs.push_back(std::make_unique<hm::GuidedTour>(
      "late", std::vector<hm::Member>(members.begin() + 1, members.end()),
      true));
  expect_structure_pinned(hm::Menu("rooms", std::move(subs)));
}

TEST_F(LinkbaseDraft, MaterializedStructureAfterReplaceArc) {
  auto structure = hm::MaterializedStructure::snapshot(
      *picasso(AccessStructureKind::IndexedGuidedTour));
  hm::AccessArc retitled = structure->stored_arcs()[3];
  retitled.title = "Elsewhere";
  structure->replace_arc(3, retitled);
  expect_structure_pinned(*structure);
}

TEST_F(LinkbaseDraft, SelfArcIsWrittenButNotExpanded) {
  auto structure = hm::MaterializedStructure::snapshot(
      *picasso(AccessStructureKind::Index));
  hm::AccessArc self = structure->stored_arcs()[1];
  self.to = self.from;
  structure->replace_arc(1, self);
  expect_structure_pinned(*structure);

  const core::LinkbaseDraft draft =
      core::draft_linkbase(*structure, structure->stored_arcs());
  EXPECT_EQ(core::expand_linkbase(draft, "links.xml").chunk->arcs.size(),
            structure->stored_arcs().size() - 1);
}

TEST_F(LinkbaseDraft, ArcToANonMemberIsTitledByItsId) {
  auto structure = hm::MaterializedStructure::snapshot(
      *picasso(AccessStructureKind::Index));
  hm::AccessArc outward = structure->stored_arcs()[0];
  outward.to = "picasso";  // the painter's node, not a member
  structure->replace_arc(0, outward);
  expect_structure_pinned(*structure);
  const std::string text = core::write_linkbase(
      core::draft_linkbase(*structure, structure->stored_arcs()));
  EXPECT_NE(text.find(R"(xlink:label="picasso" xlink:title="picasso")"),
            std::string::npos);
}

TEST_F(LinkbaseDraft, MemberListedTwiceKeepsFirstPositionAndLastTitle) {
  const hm::Index index("dupes", {{"guitar", "First"},
                                  {"guernica", "Guernica"},
                                  {"guitar", "Last"}});
  expect_structure_pinned(index);
  const std::string text =
      core::write_linkbase(core::draft_linkbase(index, index.arcs()));
  EXPECT_NE(text.find(R"(xlink:label="guitar" xlink:title="Last")"),
            std::string::npos);
  EXPECT_EQ(text.find(R"(xlink:label="guitar" xlink:title="First")"),
            std::string::npos);
}

TEST_F(LinkbaseDraft, EmptyStructureAndFamilySelfClose) {
  expect_structure_pinned(hm::Index("nothing", {}));
  expect_family_pinned(hm::ContextFamily("Empty", {}), titles_of(model_));
  expect_family_pinned(
      hm::ContextFamily("Hollow", {hm::NavigationalContext("Hollow", "none",
                                                           {}),
                                   hm::NavigationalContext("Hollow", "one",
                                                           {"guitar"})}),
      titles_of(model_));
  EXPECT_NE(core::write_linkbase(
                core::draft_context_linkbase(hm::ContextFamily("Empty", {}),
                                             model_))
                .find("/>\n"),
            std::string::npos);
}

TEST_F(LinkbaseDraft, ContextFamiliesFromTheModel) {
  expect_family_pinned(world_->by_author(model_), titles_of(model_));
  expect_family_pinned(world_->by_movement(model_), titles_of(model_));
}

TEST_F(LinkbaseDraft, ContextListingAnIdTwiceCrossesItsLabels) {
  const hm::ContextFamily family(
      "Loops", {hm::NavigationalContext("Loops", "twice",
                                        {"guitar", "guernica", "guitar"}),
                hm::NavigationalContext("Loops", "stutter",
                                        {"avignon", "avignon", "guitar"})});
  expect_family_pinned(family, titles_of(model_));
  // guitar is two locators of "twice": its next arc from guernica
  // reaches both, and both of its own prev arcs leave each of them.
  const core::LinkbaseArcs arcs = core::expand_linkbase(
      core::draft_context_linkbase(family, model_), "links-loops.xml");
  EXPECT_GT(arcs.chunk->arcs.size(), 8u);
}

TEST_F(LinkbaseDraft, RouteAndLandmarkFamilies) {
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .access(AccessStructureKind::IndexedGuidedTour, "picasso")
                    .contexts({"ByAuthor", "ByMovement"})
                    .serve();
  (void)engine->register_route({"aot", "next/(prev|up)", nav::RouteCompile::Aot});
  (void)engine->register_route({"lazy", "@ByAuthor/next*",
                                nav::RouteCompile::Lazy});
  navsep::obs::TraceAggregate traffic;
  std::uint64_t weight = 1;
  for (const std::string& page : oracle::html_pages(*engine)) {
    traffic.page_views[page] = weight;
    traffic.events += weight++;
  }
  (void)engine->enable_landmarks(traffic, nav::LandmarkOptions{.top_k = 3});

  const hm::NavigationalModel& model = engine->navigation();
  expect_family_pinned(engine->route_family("aot"), titles_of(model));
  expect_family_pinned(engine->route_family("lazy"), titles_of(model));
  expect_family_pinned(engine->landmark_family("landmarks"), titles_of(model));
}

TEST_F(LinkbaseDraft, TitlesAreEscapedAndReadBack) {
  const std::string hostile = "A & B < C > D \"E\"\tF\nG\rH";
  // The name reaches the structure page's href too, which must stay a
  // URI reference: no space, '<', '>' or '"' there.
  const hm::Index index("odd&'named'", {{"guitar", hostile},
                                        {"guernica", "plain"}});
  expect_structure_pinned(index);
  expect_family_pinned(
      hm::ContextFamily("Odd", {hm::NavigationalContext(
                                   "Odd", "q\"uoted & <x>",
                                   {"guitar", "guernica"})}),
      [&hostile](std::string_view id) {
        return id == "guitar" ? hostile : std::string(id);
      });
}

TEST_F(LinkbaseDraft, IdsNodeIdForDoesNotMapBack) {
  // "p-index" reads back as "index:p", "a/b" as "b" and "x#y" as the
  // fragment "y.html": arcs, pages and ordinals follow the read-back ids.
  const hm::IndexedGuidedTour tour(
      "odd", {{"p-index", "P"}, {"a/b", "AB"}, {"x#y", "XY"}, {"b", "B"}});
  expect_structure_pinned(tour);
  expect_family_pinned(
      hm::ContextFamily("Odd", {hm::NavigationalContext(
                                   "Odd", "ids", {"p-index", "a/b", "x#y",
                                                  "b"})}),
      titles_of(model_));
}
