// Integration tests for the core separation library: linkbase synthesis,
// navigation weaving, tangled vs separated rendering, migration driver.
#include <gtest/gtest.h>

#include "aop/weaver.hpp"
#include "core/linkbase.hpp"
#include "core/migration.hpp"
#include "core/navigation_aspect.hpp"
#include "core/renderer.hpp"
#include "museum/museum.hpp"
#include "xlink/processor.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace core = navsep::core;
namespace hm = navsep::hypermedia;
namespace aop = navsep::aop;
using navsep::museum::MuseumWorld;

namespace {

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = MuseumWorld::paper_instance();
    nav_ = std::make_unique<hm::NavigationalModel>(world_->derive_navigation());
    index_ = world_->paintings_structure(hm::AccessStructureKind::Index,
                                         *nav_, "picasso");
    igt_ = world_->paintings_structure(
        hm::AccessStructureKind::IndexedGuidedTour, *nav_, "picasso");
  }

  std::unique_ptr<MuseumWorld> world_;
  std::unique_ptr<hm::NavigationalModel> nav_;
  std::unique_ptr<hm::AccessStructure> index_;
  std::unique_ptr<hm::AccessStructure> igt_;
};

}  // namespace

// --- linkbase (Figure 9) --------------------------------------------------------

TEST_F(CoreTest, LinkbaseHoldsLocatorsAndArcs) {
  auto doc = core::build_linkbase(*index_);
  const navsep::xml::Element* link = doc->root()->first_child_element();
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->attribute_ns(navsep::xlink::kNamespace, "type").value(),
            "extended");
  EXPECT_EQ(link->children_named("loc").size(), 4u);  // 3 paintings + index
  EXPECT_EQ(link->children_named("go").size(), 6u);   // star arcs
}

TEST_F(CoreTest, LinkbaseRoundTripsThroughXLink) {
  auto doc = core::build_linkbase(*index_);
  navsep::xlink::TraversalGraph graph = core::load_linkbase(*doc);
  auto arcs = core::arcs_from_graph(graph);
  ASSERT_EQ(arcs.size(), index_->arcs().size());
  // Same from/to/role multiset (order preserved by construction).
  auto original = index_->arcs();
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    EXPECT_EQ(arcs[i].from, original[i].from) << i;
    EXPECT_EQ(arcs[i].to, original[i].to) << i;
    EXPECT_EQ(arcs[i].role, original[i].role) << i;
  }
}

TEST_F(CoreTest, LinkbaseValidatesCleanly) {
  auto doc = core::build_linkbase(*igt_);
  auto links = navsep::xlink::extract(*doc);
  for (const auto& issue : navsep::xlink::validate(links)) {
    EXPECT_NE(issue.severity, navsep::xlink::Issue::Severity::Error)
        << issue.message;
  }
}

TEST_F(CoreTest, IgtLinkbaseDiffersOnlyInArcs) {
  // The §5 change request seen at the artifact level: locators identical,
  // arcs extended by the tour chain.
  auto index_doc = core::build_linkbase(*index_);
  auto igt_doc = core::build_linkbase(*igt_);
  auto locs_a = index_doc->root()->first_child_element()->children_named("loc");
  auto locs_b = igt_doc->root()->first_child_element()->children_named("loc");
  EXPECT_EQ(locs_a.size(), locs_b.size());
  auto gos_a = index_doc->root()->first_child_element()->children_named("go");
  auto gos_b = igt_doc->root()->first_child_element()->children_named("go");
  EXPECT_EQ(gos_b.size(), gos_a.size() + 4u);  // +2 next, +2 prev
}

// --- navigation aspect ------------------------------------------------------------

TEST_F(CoreTest, AspectInjectsIndexNavigation) {
  aop::Weaver weaver;
  weaver.register_aspect(core::NavigationAspect::from_arcs(index_->arcs()));
  core::SeparatedComposer composer(weaver);
  std::string page = composer.compose_node_page(*nav_->node("guitar"));
  EXPECT_NE(page.find("class=\"navigation\""), std::string::npos);
  EXPECT_NE(page.find("nav-up"), std::string::npos);
  EXPECT_EQ(page.find("nav-next"), std::string::npos);  // Index has no tour
}

TEST_F(CoreTest, AspectInjectsTourNavigation) {
  aop::Weaver weaver;
  weaver.register_aspect(core::NavigationAspect::from_arcs(igt_->arcs()));
  core::SeparatedComposer composer(weaver);
  std::string guitar = composer.compose_node_page(*nav_->node("guitar"));
  // First of the tour: next but no prev.
  EXPECT_NE(guitar.find("nav-next"), std::string::npos);
  EXPECT_EQ(guitar.find("nav-prev"), std::string::npos);
  std::string guernica = composer.compose_node_page(*nav_->node("guernica"));
  EXPECT_NE(guernica.find("nav-next"), std::string::npos);
  EXPECT_NE(guernica.find("nav-prev"), std::string::npos);
}

TEST_F(CoreTest, AspectBuildsIndexPageEntries) {
  aop::Weaver weaver;
  weaver.register_aspect(core::NavigationAspect::from_arcs(index_->arcs()));
  core::SeparatedComposer composer(weaver);
  std::string page = composer.compose_structure_page(index_->page_id(),
                                                     index_->name());
  EXPECT_NE(page.find("nav-index"), std::string::npos);
  EXPECT_NE(page.find("The Guitar"), std::string::npos);
  EXPECT_NE(page.find("Guernica"), std::string::npos);
  EXPECT_NE(page.find("guitar.html"), std::string::npos);
}

TEST_F(CoreTest, DisablingAspectRemovesNavigation) {
  aop::Weaver weaver;
  weaver.register_aspect(core::NavigationAspect::from_arcs(index_->arcs()));
  weaver.set_enabled("navigation", false);
  core::SeparatedComposer composer(weaver);
  std::string page = composer.compose_node_page(*nav_->node("guitar"));
  EXPECT_EQ(page.find("class=\"navigation\""), std::string::npos);
  EXPECT_NE(page.find("<h1>The Guitar</h1>"), std::string::npos);
}

TEST_F(CoreTest, ContextSensitiveTourArcs) {
  // Two tours tagged with different contexts; only the active one shows.
  std::vector<core::NavArc> arcs = {
      {"guernica", "avignon", std::string(hm::roles::kNext),
       "Next by author", "ByAuthor:picasso"},
      {"guernica", "violin", std::string(hm::roles::kNext),
       "Next in movement", "ByMovement:cubism"},
  };
  aop::Weaver weaver;
  weaver.register_aspect(core::NavigationAspect::from_contextual_arcs(
      std::make_shared<const std::vector<core::NavArc>>(arcs)));
  core::SeparatedComposer composer(weaver);

  std::string by_author = composer.compose_node_page(
      *nav_->node("guernica"), "ByAuthor:picasso");
  EXPECT_NE(by_author.find("Next by author"), std::string::npos);
  EXPECT_EQ(by_author.find("Next in movement"), std::string::npos);

  std::string by_movement = composer.compose_node_page(
      *nav_->node("guernica"), "ByMovement:cubism");
  EXPECT_EQ(by_movement.find("Next by author"), std::string::npos);
  EXPECT_NE(by_movement.find("Next in movement"), std::string::npos);
}

TEST_F(CoreTest, AspectFromLinkbaseEqualsAspectFromArcs) {
  auto doc = core::build_linkbase(*igt_);
  aop::Weaver w1, w2;
  w1.register_aspect(
      core::NavigationAspect::from_linkbase(core::load_linkbase(*doc)));
  w2.register_aspect(core::NavigationAspect::from_arcs(igt_->arcs()));
  core::SeparatedComposer c1(w1), c2(w2);
  for (const char* id : {"guitar", "guernica", "avignon"}) {
    EXPECT_EQ(c1.compose_node_page(*nav_->node(id)),
              c2.compose_node_page(*nav_->node(id)))
        << id;
  }
}

// --- tangled vs separated equivalence ---------------------------------------------

TEST_F(CoreTest, TangledAndSeparatedProduceIdenticalPages) {
  // The separation must not change what the user sees: same bytes.
  core::TangledRenderer tangled(*nav_, *igt_);
  aop::Weaver weaver;
  weaver.register_aspect(core::NavigationAspect::from_arcs(igt_->arcs()));
  core::SeparatedComposer composer(weaver);

  for (const char* id : {"guitar", "guernica", "avignon"}) {
    EXPECT_EQ(tangled.render_node_page(*nav_->node(id)),
              composer.compose_node_page(*nav_->node(id)))
        << id;
  }
  EXPECT_EQ(tangled.render_structure_page(),
            composer.compose_structure_page(igt_->page_id(), igt_->name()));
}

TEST_F(CoreTest, RenderSiteCoversMembersPlusStructurePage) {
  core::TangledRenderer tangled(*nav_, *index_);
  auto pages = tangled.render_site();
  ASSERT_EQ(pages.size(), 4u);
  EXPECT_EQ(pages[0].path, "guitar.html");
  EXPECT_EQ(pages[3].path, "index-paintings-of-picasso.html");
}

// --- the paper's Figures 3 and 4 ----------------------------------------------------

TEST_F(CoreTest, Figure3IndexPageHasOnlyIndexAnchor) {
  core::TangledRenderer tangled(*nav_, *index_);
  std::string page = tangled.render_node_page(*nav_->node("guitar"));
  EXPECT_NE(page.find("<h1>The Guitar</h1>"), std::string::npos);
  EXPECT_NE(page.find("nav-up"), std::string::npos);
  EXPECT_EQ(page.find("nav-next"), std::string::npos);
  EXPECT_EQ(page.find("nav-prev"), std::string::npos);
}

TEST_F(CoreTest, Figure4IgtPageAddsTourAnchors) {
  core::TangledRenderer tangled(*nav_, *igt_);
  std::string page = tangled.render_node_page(*nav_->node("guernica"));
  EXPECT_NE(page.find("nav-up"), std::string::npos);
  EXPECT_NE(page.find("nav-next"), std::string::npos);
  EXPECT_NE(page.find("nav-prev"), std::string::npos);
}

TEST_F(CoreTest, Figure4AddsFewLinesPerPage) {
  // "Although they seem only two lines of HTML code..." — quantify it.
  core::TangledRenderer index_r(*nav_, *index_);
  core::TangledRenderer igt_r(*nav_, *igt_);
  std::string before = index_r.render_node_page(*nav_->node("guernica"));
  std::string after = igt_r.render_node_page(*nav_->node("guernica"));
  navsep::diff::Stats s = navsep::diff::stats(before, after);
  // The change is exactly the two tour anchors (plus the container
  // re-layout): a handful of lines on THIS page — but repeated on every
  // node of the context, which is the paper's complaint.
  EXPECT_GE(s.lines_added, 2u);
  EXPECT_LE(s.lines_added, 6u);
  EXPECT_EQ(after.find("nav-next") != std::string::npos, true);
  EXPECT_EQ(before.find("nav-next") != std::string::npos, false);
}

// --- migration (the headline experiment) ---------------------------------------------

TEST_F(CoreTest, MigrationTouchesEveryTangledPageButOneSeparatedArtifact) {
  core::MigrationOptions options;
  options.separated_fixed_artifacts = world_->data_artifacts();
  core::MigrationReport report =
      core::measure_migration(*nav_, *index_, *igt_, options);

  // Tangled: every member page changes (the index page itself does not —
  // its entries are the same in Index and IGT).
  EXPECT_EQ(report.tangled_authored.files_touched, 3u);
  EXPECT_EQ(report.tangled_artifacts, 4u);

  // Separated: only links.xml.
  EXPECT_EQ(report.separated_authored.files_touched, 1u);
  ASSERT_EQ(report.separated_authored.touched_paths.size(), 1u);
  EXPECT_EQ(report.separated_authored.touched_paths[0], "links.xml");

  // And the rendered result still changed (the migration was real).
  EXPECT_EQ(report.separated_rendered.files_touched, 3u);
}

TEST_F(CoreTest, MigrationLineCostScalesWithContextInTangledOnly) {
  core::MigrationOptions options;
  options.separated_fixed_artifacts = world_->data_artifacts();
  core::MigrationReport small =
      core::measure_migration(*nav_, *index_, *igt_, options);

  auto big_world = navsep::museum::MuseumWorld::synthetic(
      {.painters = 1, .paintings_per_painter = 30, .movements = 2, .seed = 7});
  auto big_nav = big_world->derive_navigation();
  auto big_index = big_world->paintings_structure(
      hm::AccessStructureKind::Index, big_nav, "painter-0");
  auto big_igt = big_world->paintings_structure(
      hm::AccessStructureKind::IndexedGuidedTour, big_nav, "painter-0");
  core::MigrationOptions big_options;
  big_options.separated_fixed_artifacts = big_world->data_artifacts();
  core::MigrationReport big =
      core::measure_migration(big_nav, *big_index, *big_igt, big_options);

  EXPECT_EQ(big.tangled_authored.files_touched, 30u);
  EXPECT_EQ(big.separated_authored.files_touched, 1u);
  EXPECT_GT(big.tangled_authored.line_stats.lines_changed(),
            small.tangled_authored.line_stats.lines_changed());
}

// --- museum data documents (Figures 7/8) ----------------------------------------------

TEST_F(CoreTest, PicassoXmlShapesLikeFigure7) {
  auto doc = world_->painter_document("picasso");
  const navsep::xml::Element* root = doc->root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name().local, "painter");
  EXPECT_EQ(root->attribute("id").value(), "picasso");
  EXPECT_EQ(root->child("name")->own_text(), "Pablo Picasso");
  EXPECT_EQ(root->children_named("painting").size(), 3u);
}

TEST_F(CoreTest, AvignonXmlShapesLikeFigure8) {
  auto doc = world_->painting_document("avignon");
  const navsep::xml::Element* root = doc->root();
  EXPECT_EQ(root->name().local, "painting");
  EXPECT_EQ(root->child("title")->own_text(), "Les Demoiselles d'Avignon");
  EXPECT_EQ(root->child("year")->own_text(), "1907");
  ASSERT_NE(root->child("painted-by"), nullptr);
  EXPECT_EQ(root->child("painted-by")->attribute("ref").value(), "picasso");
}

TEST_F(CoreTest, DataArtifactsAreWellFormedXml) {
  for (const auto& [path, content] : world_->data_artifacts()) {
    EXPECT_NE(navsep::xml::try_parse(content), nullptr) << path;
  }
}

TEST_F(CoreTest, SyntheticWorldIsDeterministic) {
  navsep::museum::SyntheticSpec spec{.painters = 3,
                                     .paintings_per_painter = 4,
                                     .movements = 2,
                                     .seed = 99};
  auto w1 = navsep::museum::MuseumWorld::synthetic(spec);
  auto w2 = navsep::museum::MuseumWorld::synthetic(spec);
  auto a1 = w1->data_artifacts();
  auto a2 = w2->data_artifacts();
  ASSERT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_EQ(a1[i], a2[i]);
  }
}

TEST_F(CoreTest, SyntheticWorldHasRequestedShape) {
  auto w = navsep::museum::MuseumWorld::synthetic(
      {.painters = 5, .paintings_per_painter = 3, .movements = 2, .seed = 1});
  EXPECT_EQ(w->painter_ids().size(), 5u);
  EXPECT_EQ(w->painting_ids().size(), 15u);
  auto nav = w->derive_navigation();
  EXPECT_EQ(nav.nodes_of("PaintingNode").size(), 15u);
  auto by_author = w->by_author(nav);
  EXPECT_EQ(by_author.contexts().size(), 5u);
}
