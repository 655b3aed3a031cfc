// End-to-end tests of contextual linkbases: navigational contexts encoded
// in XLink, read back, and woven so tour anchors are context-dependent —
// the paper's §2 scenario flowing entirely through the separated artifact.
#include <gtest/gtest.h>

#include "aop/weaver.hpp"
#include "core/linkbase.hpp"
#include "core/navigation_aspect.hpp"
#include "core/renderer.hpp"
#include "museum/museum.hpp"
#include "xlink/processor.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace core = navsep::core;
namespace hm = navsep::hypermedia;
using navsep::museum::MuseumWorld;

namespace {

class ContextLinkbaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 2 painters × 3 paintings, one movement: by-author and by-movement
    // tours genuinely differ.
    world_ = MuseumWorld::synthetic({.painters = 2,
                                     .paintings_per_painter = 3,
                                     .movements = 1,
                                     .seed = 31});
    nav_ = std::make_unique<hm::NavigationalModel>(world_->derive_navigation());
    by_author_ = std::make_unique<hm::ContextFamily>(world_->by_author(*nav_));
    by_movement_ =
        std::make_unique<hm::ContextFamily>(world_->by_movement(*nav_));
  }

  /// The family's linkbase as the XLink processor sees it: the
  /// producer's text, parsed under the default base URI.
  std::unique_ptr<navsep::xml::Document> context_linkbase(
      const hm::ContextFamily& family) const {
    const core::LinkbaseOptions options;
    navsep::xml::ParseOptions parse;
    parse.base_uri = options.base_uri;
    return navsep::xml::parse(
        core::write_linkbase(
            core::draft_context_linkbase(family, *nav_, options)),
        parse);
  }

  std::unique_ptr<MuseumWorld> world_;
  std::unique_ptr<hm::NavigationalModel> nav_;
  std::unique_ptr<hm::ContextFamily> by_author_;
  std::unique_ptr<hm::ContextFamily> by_movement_;
};

}  // namespace

TEST_F(ContextLinkbaseTest, OneExtendedLinkPerContext) {
  auto doc = context_linkbase(*by_author_);
  auto links = navsep::xlink::extract(*doc);
  EXPECT_EQ(links.extended.size(), by_author_->contexts().size());
  for (const auto& issue : navsep::xlink::validate(links)) {
    EXPECT_NE(issue.severity, navsep::xlink::Issue::Severity::Error)
        << issue.message;
  }
}

TEST_F(ContextLinkbaseTest, ArcsCarryContextTags) {
  auto doc = context_linkbase(*by_author_);
  auto graph = core::load_linkbase(*doc);
  auto arcs = core::combined_nav_arcs({{"", &graph}});
  ASSERT_FALSE(arcs.empty());
  // 2 painters × 3 paintings → per context 2 next + 2 prev.
  EXPECT_EQ(arcs.size(), 8u);
  for (const auto& ca : arcs) {
    EXPECT_TRUE(ca.context == "ByAuthor:painter-0" ||
                ca.context == "ByAuthor:painter-1")
        << ca.context;
  }
}

TEST_F(ContextLinkbaseTest, RoundTripsThroughSerialization) {
  auto doc = context_linkbase(*by_movement_);
  std::string text = navsep::xml::write(*doc, {.pretty = true});
  navsep::xml::ParseOptions opts;
  opts.base_uri = doc->base_uri();
  auto reparsed = navsep::xml::parse(text, opts);
  auto graph = core::load_linkbase(*reparsed);
  auto arcs = core::combined_nav_arcs({{"", &graph}});
  // One movement containing all 6 paintings → 5 next + 5 prev.
  EXPECT_EQ(arcs.size(), 10u);
  EXPECT_EQ(arcs[0].context, "ByMovement:movement-0");
}

TEST_F(ContextLinkbaseTest, WovenTourAnchorsAreContextDependent) {
  // Combine BOTH families into one weaver; each page shows only the tour
  // of the context it is composed in.
  auto author_doc = context_linkbase(*by_author_);
  auto movement_doc = context_linkbase(*by_movement_);
  auto graph = core::load_linkbase(*author_doc);
  graph.merge(core::load_linkbase(*movement_doc));

  navsep::aop::Weaver weaver;
  weaver.register_aspect(
      core::NavigationAspect::from_contextual_linkbase(graph));
  core::SeparatedComposer composer(weaver);

  // Last painting of painter-0: no next within the author context...
  std::string in_author = composer.compose_node_page(
      *nav_->node("painter-0-work-2"), "ByAuthor:painter-0");
  EXPECT_EQ(in_author.find("nav-next"), std::string::npos);
  EXPECT_NE(in_author.find("nav-prev"), std::string::npos);

  // ...but within the movement, the next is painter-1's first work.
  std::string in_movement = composer.compose_node_page(
      *nav_->node("painter-0-work-2"), "ByMovement:movement-0");
  EXPECT_NE(in_movement.find("nav-next"), std::string::npos);

  // With no context, no tour anchors at all (context_sensitive default).
  std::string bare =
      composer.compose_node_page(*nav_->node("painter-0-work-2"));
  EXPECT_EQ(bare.find("nav-next"), std::string::npos);
  EXPECT_EQ(bare.find("nav-prev"), std::string::npos);
}

TEST_F(ContextLinkbaseTest, ContextInsensitiveOptionShowsEverything) {
  auto doc = context_linkbase(*by_author_);
  core::NavigationAspectOptions options;
  options.context_sensitive = false;
  navsep::aop::Weaver weaver;
  weaver.register_aspect(core::NavigationAspect::from_contextual_linkbase(
      core::load_linkbase(*doc), options));
  core::SeparatedComposer composer(weaver);
  std::string bare =
      composer.compose_node_page(*nav_->node("painter-0-work-1"));
  EXPECT_NE(bare.find("nav-next"), std::string::npos);
  EXPECT_NE(bare.find("nav-prev"), std::string::npos);
}

TEST_F(ContextLinkbaseTest, LocatorTitlesComeFromTheModel) {
  auto doc = context_linkbase(*by_author_);
  const navsep::xml::Element* first_tour =
      doc->root()->first_child_element();
  ASSERT_NE(first_tour, nullptr);
  auto locs = first_tour->children_named("loc");
  ASSERT_FALSE(locs.empty());
  auto title = locs[0]->attribute_ns(navsep::xlink::kNamespace, "title");
  ASSERT_TRUE(title.has_value());
  EXPECT_EQ(*title, nav_->node("painter-0-work-0")->title());
}
