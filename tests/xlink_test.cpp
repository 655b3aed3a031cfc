// Unit tests for the XLink processor: recognition, arc expansion,
// validation, the document registry and the traversal graph.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "serve/snapshot.hpp"
#include "site/virtual_site.hpp"
#include "xlink/processor.hpp"
#include "xlink/traversal.hpp"
#include "xml/parser.hpp"

namespace xml = navsep::xml;
namespace xl = navsep::xlink;

namespace {

std::unique_ptr<xml::Document> parse_at(std::string_view text,
                                        std::string base) {
  xml::ParseOptions o;
  o.base_uri = std::move(base);
  return xml::parse(text, o);
}

// The paper's links.xml (Figure 9), modernized to real XLink 1.0 syntax:
// one extended link holding locators for the three paintings plus index
// page, and arcs wiring up an Index access structure.
const char* kLinksXml = R"(<links xmlns:xlink="http://www.w3.org/1999/xlink">
  <context xlink:type="extended" xlink:role="paintings-by-picasso"
           xlink:title="Paintings by Picasso">
    <loc xlink:type="locator" xlink:href="picasso.xml#guitar"
         xlink:label="guitar" xlink:title="The Guitar"/>
    <loc xlink:type="locator" xlink:href="picasso.xml#guernica"
         xlink:label="guernica" xlink:title="Guernica"/>
    <loc xlink:type="locator" xlink:href="avignon.xml#avignon"
         xlink:label="avignon" xlink:title="Les Demoiselles d'Avignon"/>
    <loc xlink:type="locator" xlink:href="index.xml"
         xlink:label="index" xlink:title="Index of paintings"/>
    <go xlink:type="arc" xlink:from="index" xlink:to="guitar"
        xlink:arcrole="nav:index-entry" xlink:show="replace"
        xlink:actuate="onRequest"/>
    <go xlink:type="arc" xlink:from="index" xlink:to="guernica"
        xlink:arcrole="nav:index-entry"/>
    <go xlink:type="arc" xlink:from="index" xlink:to="avignon"
        xlink:arcrole="nav:index-entry"/>
    <go xlink:type="arc" xlink:from="guitar" xlink:to="index"
        xlink:arcrole="nav:up"/>
    <go xlink:type="arc" xlink:from="guernica" xlink:to="index"
        xlink:arcrole="nav:up"/>
    <go xlink:type="arc" xlink:from="avignon" xlink:to="index"
        xlink:arcrole="nav:up"/>
  </context>
</links>)";

const char* kBase = "http://museum.example/data/links.xml";

}  // namespace

// --- recognition --------------------------------------------------------------

TEST(XLinkExtract, SimpleLink) {
  auto doc = parse_at(
      R"(<p xmlns:xlink="http://www.w3.org/1999/xlink">
           <a xlink:type="simple" xlink:href="other.xml" xlink:title="Other"
              xlink:show="replace" xlink:actuate="onRequest"/>
         </p>)",
      "http://h/page.xml");
  xl::LinkCollection links = xl::extract(*doc);
  ASSERT_EQ(links.simple.size(), 1u);
  EXPECT_EQ(links.simple[0].href, "other.xml");
  EXPECT_EQ(links.simple[0].title, "Other");
  EXPECT_EQ(links.simple[0].show, xl::Show::Replace);
  EXPECT_EQ(links.simple[0].actuate, xl::Actuate::OnRequest);
  EXPECT_TRUE(links.extended.empty());
}

TEST(XLinkExtract, ExtendedLinkConstituents) {
  auto doc = parse_at(kLinksXml, kBase);
  xl::LinkCollection links = xl::extract(*doc);
  ASSERT_EQ(links.extended.size(), 1u);
  const xl::ExtendedLink& x = links.extended[0];
  EXPECT_EQ(x.role, "paintings-by-picasso");
  EXPECT_EQ(x.locators.size(), 4u);
  EXPECT_EQ(x.arcs.size(), 6u);
  EXPECT_TRUE(x.resources.empty());
  EXPECT_EQ(x.locators[0].label, "guitar");
  EXPECT_EQ(x.arcs[0].arcrole, "nav:index-entry");
}

TEST(XLinkExtract, ResourceTypeElements) {
  auto doc = parse_at(
      R"(<x xmlns:xlink="http://www.w3.org/1999/xlink" xlink:type="extended">
           <here xlink:type="resource" xlink:label="home" xlink:title="Home"/>
           <there xlink:type="locator" xlink:href="a.xml" xlink:label="a"/>
           <arc xlink:type="arc" xlink:from="home" xlink:to="a"/>
         </x>)",
      "http://h/x.xml");
  xl::LinkCollection links = xl::extract(*doc);
  ASSERT_EQ(links.extended.size(), 1u);
  EXPECT_EQ(links.extended[0].resources.size(), 1u);
  EXPECT_EQ(links.extended[0].resources[0].label, "home");
  auto eps = links.extended[0].endpoints_with_label("home");
  EXPECT_EQ(eps.size(), 1u);
}

TEST(XLinkExtract, TitleElementFillsMissingTitle) {
  auto doc = parse_at(
      R"(<x xmlns:xlink="http://www.w3.org/1999/xlink" xlink:type="extended">
           <t xlink:type="title">A readable title</t>
         </x>)",
      "http://h/x.xml");
  xl::LinkCollection links = xl::extract(*doc);
  ASSERT_EQ(links.extended.size(), 1u);
  EXPECT_EQ(links.extended[0].title, "A readable title");
}

TEST(XLinkExtract, OrphanConstituentsReportIssues) {
  auto doc = parse_at(
      R"(<p xmlns:xlink="http://www.w3.org/1999/xlink">
           <l xlink:type="locator" xlink:href="x.xml"/>
         </p>)",
      "http://h/p.xml");
  std::vector<xl::Issue> issues;
  (void)xl::extract(*doc, &issues);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].severity, xl::Issue::Severity::Warning);
}

TEST(XLinkExtract, NonXlinkDocumentYieldsNothing) {
  auto doc = parse_at("<data><item href='x'/></data>", "http://h/d.xml");
  xl::LinkCollection links = xl::extract(*doc);
  EXPECT_EQ(links.total_links(), 0u);
}

// --- validation ----------------------------------------------------------------

TEST(XLinkValidate, DanglingArcLabelIsError) {
  auto doc = parse_at(
      R"(<x xmlns:xlink="http://www.w3.org/1999/xlink" xlink:type="extended">
           <l xlink:type="locator" xlink:href="a.xml" xlink:label="a"/>
           <arc xlink:type="arc" xlink:from="a" xlink:to="ghost"/>
         </x>)",
      "http://h/x.xml");
  auto issues = xl::validate(xl::extract(*doc));
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const auto& i : issues) {
    if (i.severity == xl::Issue::Severity::Error &&
        i.message.find("ghost") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(XLinkValidate, LocatorWithoutHrefIsError) {
  auto doc = parse_at(
      R"(<x xmlns:xlink="http://www.w3.org/1999/xlink" xlink:type="extended">
           <l xlink:type="locator" xlink:label="a"/>
         </x>)",
      "http://h/x.xml");
  auto issues = xl::validate(xl::extract(*doc));
  bool has_error = false;
  for (const auto& i : issues) {
    if (i.severity == xl::Issue::Severity::Error) has_error = true;
  }
  EXPECT_TRUE(has_error);
}

TEST(XLinkValidate, CleanLinkbaseHasNoErrors) {
  auto doc = parse_at(kLinksXml, kBase);
  for (const auto& i : xl::validate(xl::extract(*doc))) {
    EXPECT_NE(i.severity, xl::Issue::Severity::Error) << i.message;
  }
}

// --- arc expansion ---------------------------------------------------------------

TEST(XLinkExpand, ExplicitFromToPairs) {
  auto doc = parse_at(kLinksXml, kBase);
  auto arcs = xl::expand_arcs(xl::extract(*doc), kBase);
  ASSERT_EQ(arcs.size(), 6u);
  EXPECT_EQ(arcs[0].from.uri, "http://museum.example/data/index.xml");
  EXPECT_EQ(arcs[0].to.uri, "http://museum.example/data/picasso.xml#guitar");
  EXPECT_EQ(arcs[0].show, xl::Show::Replace);
  EXPECT_EQ(arcs[0].actuate, xl::Actuate::OnRequest);
}

TEST(XLinkExpand, MissingFromMeansEveryEndpoint) {
  auto doc = parse_at(
      R"(<x xmlns:xlink="http://www.w3.org/1999/xlink" xlink:type="extended">
           <l xlink:type="locator" xlink:href="a.xml" xlink:label="a"/>
           <l xlink:type="locator" xlink:href="b.xml" xlink:label="b"/>
           <l xlink:type="locator" xlink:href="c.xml" xlink:label="c"/>
           <arc xlink:type="arc" xlink:to="c"/>
         </x>)",
      "http://h/x.xml");
  auto arcs = xl::expand_arcs(xl::extract(*doc), "http://h/x.xml");
  // from ∈ {a, b, c}, to = c, minus the self-pair c→c.
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].from.uri, "http://h/a.xml");
  EXPECT_EQ(arcs[1].from.uri, "http://h/b.xml");
}

TEST(XLinkExpand, MissingBothMeansFullCrossProduct) {
  auto doc = parse_at(
      R"(<x xmlns:xlink="http://www.w3.org/1999/xlink" xlink:type="extended">
           <l xlink:type="locator" xlink:href="a.xml" xlink:label="a"/>
           <l xlink:type="locator" xlink:href="b.xml" xlink:label="b"/>
           <arc xlink:type="arc"/>
         </x>)",
      "http://h/x.xml");
  auto arcs = xl::expand_arcs(xl::extract(*doc), "http://h/x.xml");
  EXPECT_EQ(arcs.size(), 2u);  // a→b and b→a
}

TEST(XLinkExpand, SharedLabelFansOut) {
  auto doc = parse_at(
      R"(<x xmlns:xlink="http://www.w3.org/1999/xlink" xlink:type="extended">
           <l xlink:type="locator" xlink:href="p1.xml" xlink:label="painting"/>
           <l xlink:type="locator" xlink:href="p2.xml" xlink:label="painting"/>
           <l xlink:type="locator" xlink:href="idx.xml" xlink:label="index"/>
           <arc xlink:type="arc" xlink:from="index" xlink:to="painting"/>
         </x>)",
      "http://h/x.xml");
  auto arcs = xl::expand_arcs(xl::extract(*doc), "http://h/x.xml");
  EXPECT_EQ(arcs.size(), 2u);
}

TEST(XLinkExpand, SimpleLinkBecomesOneArc) {
  auto doc = parse_at(
      R"(<p xmlns:xlink="http://www.w3.org/1999/xlink">
           <a xlink:type="simple" xlink:href="next.xml"/>
         </p>)",
      "http://h/here.xml");
  auto arcs = xl::expand_arcs(xl::extract(*doc), "http://h/here.xml");
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_EQ(arcs[0].from.uri, "http://h/here.xml");
  EXPECT_EQ(arcs[0].to.uri, "http://h/next.xml");
}

TEST(XLinkExpand, HrefsResolveAgainstBase) {
  auto doc = parse_at(
      R"(<x xmlns:xlink="http://www.w3.org/1999/xlink" xlink:type="extended">
           <l xlink:type="locator" xlink:href="../other/a.xml" xlink:label="a"/>
           <l xlink:type="locator" xlink:href="#frag" xlink:label="b"/>
           <arc xlink:type="arc" xlink:from="a" xlink:to="b"/>
         </x>)",
      "http://h/data/x.xml");
  auto arcs = xl::expand_arcs(xl::extract(*doc), "http://h/data/x.xml");
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_EQ(arcs[0].from.uri, "http://h/other/a.xml");
  EXPECT_EQ(arcs[0].to.uri, "http://h/data/x.xml#frag");
}

// --- registry ---------------------------------------------------------------------

TEST(DocumentRegistry, FindIgnoresFragmentAndCase) {
  auto doc = parse_at("<r><a id='x'/></r>", "http://H/Doc.xml");
  xl::DocumentRegistry reg;
  reg.add(*doc);
  EXPECT_NE(reg.find("http://h/Doc.xml"), nullptr);
  EXPECT_NE(reg.find("http://h/Doc.xml#x"), nullptr);
  EXPECT_EQ(reg.find("http://h/Other.xml"), nullptr);
}

TEST(DocumentRegistry, ResolveFragmentViaXPointer) {
  auto doc = parse_at("<r><a id='x'><b id='y'/></a></r>", "http://h/d.xml");
  xl::DocumentRegistry reg;
  reg.add(*doc);
  const xml::Element* y = reg.resolve("http://h/d.xml#y");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->name().local, "b");
  const xml::Element* root = reg.resolve("http://h/d.xml");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name().local, "r");
  EXPECT_EQ(reg.resolve("http://h/d.xml#none"), nullptr);
  EXPECT_EQ(reg.resolve("http://h/unknown.xml"), nullptr);
}

TEST(DocumentRegistry, ResolveSchemePointers) {
  auto doc = parse_at("<r><a/><b><c id='tgt'/></b></r>", "http://h/d.xml");
  xl::DocumentRegistry reg;
  reg.add(*doc);
  const xml::Element* c = reg.resolve("http://h/d.xml#element(/1/2/1)");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->attribute("id").value(), "tgt");
  const xml::Element* via_xp =
      reg.resolve("http://h/d.xml#xpointer(//c)");
  EXPECT_EQ(via_xp, c);
}

// --- traversal graph -------------------------------------------------------------------

class TraversalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = parse_at(kLinksXml, kBase);
    graph_ = xl::TraversalGraph::from_linkbase(*doc_);
  }
  std::unique_ptr<xml::Document> doc_;
  xl::TraversalGraph graph_;
};

TEST_F(TraversalTest, OutgoingFromIndex) {
  auto out = graph_.outgoing("http://museum.example/data/index.xml");
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(TraversalTest, OutgoingFromPainting) {
  auto out = graph_.outgoing("http://museum.example/data/picasso.xml#guitar");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->arcrole, "nav:up");
}

TEST_F(TraversalTest, IncomingToIndex) {
  EXPECT_EQ(graph_.incoming("http://museum.example/data/index.xml").size(),
            3u);
}

TEST_F(TraversalTest, LookupNormalizesUris) {
  auto out = graph_.outgoing("HTTP://museum.example/data/../data/index.xml");
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(TraversalTest, OutgoingWithRoleFilters) {
  auto out = graph_.outgoing_with_role(
      "http://museum.example/data/index.xml", "nav:index-entry");
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(graph_
                  .outgoing_with_role("http://museum.example/data/index.xml",
                                      "nav:up")
                  .empty());
}

TEST_F(TraversalTest, ResourceUrisAreDistinctAndSorted) {
  auto uris = graph_.resource_uris();
  EXPECT_EQ(uris.size(), 4u);  // index + three paintings
  EXPECT_TRUE(std::is_sorted(uris.begin(), uris.end()));
}

TEST_F(TraversalTest, UnknownUriHasNoArcs) {
  EXPECT_TRUE(graph_.outgoing("http://elsewhere/x.xml").empty());
}

TEST_F(TraversalTest, MergeCombinesLinkbases) {
  auto extra = parse_at(
      R"(<links xmlns:xlink="http://www.w3.org/1999/xlink">
           <x xlink:type="extended">
             <l xlink:type="locator" xlink:href="index.xml" xlink:label="i"/>
             <l xlink:type="locator" xlink:href="museum.xml" xlink:label="m"/>
             <arc xlink:type="arc" xlink:from="i" xlink:to="m"
                  xlink:arcrole="nav:home"/>
           </x>
         </links>)",
      kBase);
  xl::TraversalGraph more = xl::TraversalGraph::from_linkbase(*extra);
  graph_.merge(std::move(more));
  auto out = graph_.outgoing("http://museum.example/data/index.xml");
  EXPECT_EQ(out.size(), 4u);
}

// --- normalize once: merge and capture over already-normalized indexes --------

namespace {

/// A linkbase with one extended link over `locators` (label, href pairs)
/// plus one local resource labeled "local", and `arcs` (from, to,
/// arcrole) between those labels.
std::string linkbase_text(
    const std::vector<std::pair<std::string, std::string>>& locators,
    const std::vector<std::tuple<std::string, std::string, std::string>>&
        arcs) {
  std::string text =
      R"(<links xmlns:xlink="http://www.w3.org/1999/xlink"><x xlink:type="extended">)";
  for (const auto& [label, href] : locators) {
    text += R"(<loc xlink:type="locator" xlink:label=")" + label +
            R"(" xlink:href=")" + href + R"("/>)";
  }
  text += R"(<res xlink:type="resource" xlink:label="local">note</res>)";
  for (const auto& [from, to, arcrole] : arcs) {
    text += R"(<go xlink:type="arc" xlink:from=")" + from +
            R"(" xlink:to=")" + to + R"(" xlink:arcrole=")" + arcrole +
            R"("/>)";
  }
  return text + "</x></links>";
}

/// The three normalize-once properties over two linkbases `a` and `b`:
/// merge(a, b) answers like a graph built from a's arcs then b's; its
/// resource_uris() is the set of normalize_ref over every non-empty
/// endpoint; and a SiteSnapshot captured over it has the traversal arcs
/// of the walk that normalizes every endpoint.
void expect_normalize_once_equivalence(const std::string& a_text,
                                       const std::string& a_base,
                                       const std::string& b_text,
                                       const std::string& b_base,
                                       const std::vector<std::string>& probes) {
  auto a_doc = parse_at(a_text, a_base);
  auto b_doc = parse_at(b_text, b_base);
  const xl::TraversalGraph a = xl::TraversalGraph::from_linkbase(*a_doc);
  const xl::TraversalGraph b = xl::TraversalGraph::from_linkbase(*b_doc);
  xl::TraversalGraph merged = a;
  merged.merge(b);
  std::vector<xl::Arc> all = a.arcs();
  all.insert(all.end(), b.arcs().begin(), b.arcs().end());
  const xl::TraversalGraph built(std::move(all));

  // 1. merge answers exactly like the graph built from the arc list.
  ASSERT_EQ(merged.arcs().size(), built.arcs().size());
  EXPECT_EQ(merged.resource_uris(), built.resource_uris());
  const auto positions = [](const xl::TraversalGraph& g,
                            const std::vector<const xl::Arc*>& arcs) {
    std::vector<std::size_t> out;
    for (const xl::Arc* arc : arcs) {
      out.push_back(static_cast<std::size_t>(arc - g.arcs().data()));
    }
    return out;
  };
  std::vector<std::string> uris = merged.resource_uris();
  uris.insert(uris.end(), probes.begin(), probes.end());
  for (const std::string& uri : uris) {
    EXPECT_EQ(positions(merged, merged.outgoing(uri)),
              positions(built, built.outgoing(uri)))
        << uri;
    EXPECT_EQ(positions(merged, merged.incoming(uri)),
              positions(built, built.incoming(uri)))
        << uri;
  }

  // 2. resource_uris() is the normalized endpoint set.
  std::set<std::string> endpoints;
  for (const xl::Arc& arc : merged.arcs()) {
    if (!arc.from.uri.empty()) endpoints.insert(xl::normalize_ref(arc.from.uri));
    if (!arc.to.uri.empty()) endpoints.insert(xl::normalize_ref(arc.to.uri));
  }
  EXPECT_EQ(merged.resource_uris(),
            std::vector<std::string>(endpoints.begin(), endpoints.end()));

  // 2b. Each bucket of the built graph holds exactly the arcs whose
  // endpoint normalizes to its key, in document order, however many
  // spellings of that key its arcs use.
  for (const std::string& uri : endpoints) {
    std::vector<std::size_t> from;
    std::vector<std::size_t> to;
    for (std::size_t i = 0; i < built.arcs().size(); ++i) {
      const xl::Arc& arc = built.arcs()[i];
      if (!arc.from.uri.empty() && xl::normalize_ref(arc.from.uri) == uri) {
        from.push_back(i);
      }
      if (!arc.to.uri.empty() && xl::normalize_ref(arc.to.uri) == uri) {
        to.push_back(i);
      }
    }
    EXPECT_EQ(positions(built, built.outgoing(uri)), from) << uri;
    EXPECT_EQ(positions(built, built.incoming(uri)), to) << uri;
  }

  // 3. The snapshot capture equals the walk normalizing every endpoint.
  std::map<std::string, std::vector<navsep::serve::SnapshotArc>, std::less<>>
      walked;
  for (const std::string& from : endpoints) {
    std::vector<const xl::Arc*> outgoing = merged.outgoing(from);
    if (outgoing.empty()) continue;
    std::vector<navsep::serve::SnapshotArc> bucket;
    for (const xl::Arc* arc : outgoing) {
      bucket.push_back(navsep::serve::SnapshotArc{
          xl::normalize_ref(arc->from.uri), xl::normalize_ref(arc->to.uri),
          arc->arcrole, arc->title, xl::is_traversable(*arc)});
    }
    walked.emplace(xl::normalize_ref(from), std::move(bucket));
  }
  const navsep::serve::SiteSnapshot snapshot(navsep::site::VirtualSite{},
                                             merged, "http://museum.example/",
                                             1);
  EXPECT_EQ(snapshot.traversal_arcs(), walked);
  EXPECT_FALSE(walked.empty());
}

}  // namespace

TEST(NormalizeOnce, UppercaseSchemeAndHost) {
  expect_normalize_once_equivalence(
      linkbase_text({{"i", "index.xml"}, {"g", "picasso.xml"}},
                    {{"i", "g", "nav:index-entry"}, {"g", "i", "nav:up"}}),
      "HTTP://Museum.Example/data/links.xml",
      linkbase_text({{"i", "HTTP://MUSEUM.example/data/index.xml"},
                     {"g", "http://museum.EXAMPLE/data/picasso.xml"}},
                    {{"i", "g", "nav:next"}}),
      "http://museum.example/data/more.xml",
      {"http://museum.example/data/index.xml",
       "hTTp://MuSeUm.example/data/picasso.xml"});
}

TEST(NormalizeOnce, PercentEncodedTilde) {
  expect_normalize_once_equivalence(
      linkbase_text({{"i", "index.xml"}, {"n", "%7ecurator/notes.xml"}},
                    {{"i", "n", "nav:note"}, {"n", "i", "nav:up"}}),
      "http://museum.example/data/links.xml",
      linkbase_text({{"n", "~curator/notes.xml"}, {"i", "index.xml"}},
                    {{"n", "i", "nav:next"}}),
      "http://museum.example/data/more.xml",
      {"http://museum.example/data/%7Ecurator/notes.xml",
       "http://museum.example/data/~curator/notes.xml"});
}

TEST(NormalizeOnce, DotSegments) {
  expect_normalize_once_equivalence(
      linkbase_text({{"i", "./index.xml"}, {"g", "../data/./picasso.xml"}},
                    {{"i", "g", "nav:index-entry"}}),
      "http://museum.example/data/links.xml",
      linkbase_text({{"g", "sub/../picasso.xml"}, {"i", "index.xml"}},
                    {{"g", "i", "nav:up"}}),
      "http://museum.example/data/more.xml",
      {"http://museum.example/data/x/../index.xml"});
}

TEST(NormalizeOnce, Fragment) {
  expect_normalize_once_equivalence(
      linkbase_text({{"g", "picasso.xml#guitar"}, {"v", "picasso.xml#violin"}},
                    {{"g", "v", "nav:next"}, {"v", "g", "nav:prev"}}),
      "http://museum.example/data/links.xml",
      linkbase_text({{"g", "./picasso.xml#gu%69tar"}, {"d", "picasso.xml"}},
                    {{"d", "g", "nav:index-entry"}, {"g", "d", "nav:up"}}),
      "http://museum.example/data/more.xml",
      {"http://museum.example/data/picasso.xml#guitar"});
}

TEST(NormalizeOnce, OneEndpointSpelledTwoWays) {
  // "g" and "G" locate one resource: both spellings' arcs share one
  // bucket, in document order, in each graph and across the merge.
  expect_normalize_once_equivalence(
      linkbase_text({{"i", "index.xml"},
                     {"g", "picasso.xml"},
                     {"G", "HTTP://MUSEUM.example/data/./pic%61sso.xml"}},
                    {{"g", "i", "nav:up"},
                     {"i", "G", "nav:index-entry"},
                     {"G", "i", "nav:next"},
                     {"i", "g", "nav:prev"}}),
      "http://museum.example/data/links.xml",
      linkbase_text({{"p", "../data/picasso.xml"}, {"i", "index.xml"}},
                    {{"p", "i", "nav:up"}, {"i", "p", "nav:next"}}),
      "http://museum.example/data/more.xml",
      {"http://museum.example/data/picasso.xml"});
}

TEST(NormalizeOnce, LocalResourceWithoutUri) {
  expect_normalize_once_equivalence(
      linkbase_text({{"i", "index.xml"}},
                    {{"local", "i", "nav:up"}, {"i", "local", "nav:gloss"}}),
      "http://museum.example/data/links.xml",
      linkbase_text({{"i", "index.xml"}, {"g", "picasso.xml"}},
                    {{"local", "g", "nav:see"}, {"i", "g", "nav:next"}}),
      "http://museum.example/data/more.xml", {""});
}
