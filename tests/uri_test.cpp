// Unit + property tests for RFC 3986 URI handling.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "uri/uri.hpp"

namespace uri = navsep::uri;

TEST(UriParse, FullUriDecomposes) {
  uri::Uri u = uri::parse("http://example.com/a/b?x=1#frag");
  ASSERT_TRUE(u.scheme);
  EXPECT_EQ(*u.scheme, "http");
  ASSERT_TRUE(u.authority);
  EXPECT_EQ(*u.authority, "example.com");
  EXPECT_EQ(u.path, "/a/b");
  ASSERT_TRUE(u.query);
  EXPECT_EQ(*u.query, "x=1");
  ASSERT_TRUE(u.fragment);
  EXPECT_EQ(*u.fragment, "frag");
}

TEST(UriParse, RelativeReferenceHasNoScheme) {
  uri::Uri u = uri::parse("links.xml#picasso");
  EXPECT_FALSE(u.scheme);
  EXPECT_FALSE(u.authority);
  EXPECT_EQ(u.path, "links.xml");
  ASSERT_TRUE(u.fragment);
  EXPECT_EQ(*u.fragment, "picasso");
}

TEST(UriParse, SameDocumentReference) {
  uri::Uri u = uri::parse("#guitar");
  EXPECT_TRUE(u.is_same_document());
  EXPECT_EQ(*u.fragment, "guitar");
}

TEST(UriParse, EmptyQueryAndFragmentAreDistinctFromAbsent) {
  uri::Uri with = uri::parse("http://h/p?#");
  ASSERT_TRUE(with.query);
  EXPECT_EQ(*with.query, "");
  ASSERT_TRUE(with.fragment);
  uri::Uri without = uri::parse("http://h/p");
  EXPECT_FALSE(without.query);
  EXPECT_FALSE(without.fragment);
  EXPECT_NE(with.to_string(), without.to_string());
}

TEST(UriParse, ColonInPathDoesNotCreateScheme) {
  uri::Uri u = uri::parse("./a:b/c");
  EXPECT_FALSE(u.scheme);
  EXPECT_EQ(u.path, "./a:b/c");
}

TEST(UriParse, SchemeIsCaseInsensitive) {
  EXPECT_EQ(*uri::parse("HTTP://h/").scheme, "http");
}

TEST(UriParse, RejectsIllegalCharacters) {
  EXPECT_THROW(uri::parse("http://h/a b"), navsep::ParseError);
  EXPECT_THROW(uri::parse("<x>"), navsep::ParseError);
}

TEST(UriRecompose, RoundTripsTextualForm) {
  for (const char* text :
       {"http://example.com/a/b?x=1#f", "//host/path", "/abs/path", "rel",
        "#frag", "?q", "mailto:user@host", "file:///tmp/x.xml"}) {
    EXPECT_EQ(uri::parse(text).to_string(), text) << text;
  }
}

TEST(UriDotSegments, Rfc3986Examples) {
  EXPECT_EQ(uri::remove_dot_segments("/a/b/c/./../../g"), "/a/g");
  EXPECT_EQ(uri::remove_dot_segments("mid/content=5/../6"), "mid/6");
  EXPECT_EQ(uri::remove_dot_segments("../bare"), "bare");
  EXPECT_EQ(uri::remove_dot_segments("/.."), "/");
  EXPECT_EQ(uri::remove_dot_segments("/a/.."), "/");
  EXPECT_EQ(uri::remove_dot_segments("."), "");
}

// The RFC 3986 §5.4.1 normal-resolution examples, parameterized.
struct ResolveCase {
  const char* ref;
  const char* expected;
};

// Name each case by its reference, so test IDs are stable across runs;
// gtest's fallback prints the struct's raw bytes, i.e. two pointers.
void PrintTo(const ResolveCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.ref));
}

class UriResolveNormal : public ::testing::TestWithParam<ResolveCase> {};

TEST_P(UriResolveNormal, MatchesRfc3986) {
  const auto& p = GetParam();
  EXPECT_EQ(uri::resolve("http://a/b/c/d;p?q", p.ref), p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc3986Section541, UriResolveNormal,
    ::testing::Values(
        ResolveCase{"g", "http://a/b/c/g"},
        ResolveCase{"./g", "http://a/b/c/g"},
        ResolveCase{"g/", "http://a/b/c/g/"},
        ResolveCase{"/g", "http://a/g"},
        ResolveCase{"//g", "http://g"},
        ResolveCase{"?y", "http://a/b/c/d;p?y"},
        ResolveCase{"g?y", "http://a/b/c/g?y"},
        ResolveCase{"#s", "http://a/b/c/d;p?q#s"},
        ResolveCase{"g#s", "http://a/b/c/g#s"},
        ResolveCase{";x", "http://a/b/c/;x"},
        ResolveCase{"g;x", "http://a/b/c/g;x"},
        ResolveCase{"", "http://a/b/c/d;p?q"},
        ResolveCase{".", "http://a/b/c/"},
        ResolveCase{"./", "http://a/b/c/"},
        ResolveCase{"..", "http://a/b/"},
        ResolveCase{"../", "http://a/b/"},
        ResolveCase{"../g", "http://a/b/g"},
        ResolveCase{"../..", "http://a/"},
        ResolveCase{"../../", "http://a/"},
        ResolveCase{"../../g", "http://a/g"}));

class UriResolveAbnormal : public ::testing::TestWithParam<ResolveCase> {};

TEST_P(UriResolveAbnormal, MatchesRfc3986) {
  const auto& p = GetParam();
  EXPECT_EQ(uri::resolve("http://a/b/c/d;p?q", p.ref), p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc3986Section542, UriResolveAbnormal,
    ::testing::Values(
        ResolveCase{"../../../g", "http://a/g"},
        ResolveCase{"../../../../g", "http://a/g"},
        ResolveCase{"/./g", "http://a/g"},
        ResolveCase{"/../g", "http://a/g"},
        ResolveCase{"g.", "http://a/b/c/g."},
        ResolveCase{".g", "http://a/b/c/.g"},
        ResolveCase{"g..", "http://a/b/c/g.."},
        ResolveCase{"..g", "http://a/b/c/..g"},
        ResolveCase{"./../g", "http://a/b/g"},
        ResolveCase{"./g/.", "http://a/b/c/g/"},
        ResolveCase{"g/./h", "http://a/b/c/g/h"},
        ResolveCase{"g/../h", "http://a/b/c/h"},
        ResolveCase{"g;x=1/./y", "http://a/b/c/g;x=1/y"},
        ResolveCase{"g;x=1/../y", "http://a/b/c/y"}));

TEST(UriResolve, AbsoluteReferenceWinsOverBase) {
  EXPECT_EQ(uri::resolve("http://a/b", "https://x/y"), "https://x/y");
}

TEST(UriResolve, RelativeLinkbaseCase) {
  // The museum site stores data and links side by side.
  EXPECT_EQ(uri::resolve("http://museum.example/data/links.xml",
                         "picasso.xml#guitar"),
            "http://museum.example/data/picasso.xml#guitar");
}

TEST(UriNormalize, CaseAndPercentEncoding) {
  uri::Uri u = uri::parse("HTTP://Example.COM/%7euser/./x/../y%2F");
  uri::Uri n = uri::normalize(u);
  EXPECT_EQ(n.to_string(), "http://example.com/~user/y%2F");
}

TEST(UriPercent, EncodeDecodesRoundTrip) {
  std::string original = "a b/c?d&e=f#g%";
  std::string encoded = uri::percent_encode(original);
  EXPECT_EQ(encoded.find(' '), std::string::npos);
  EXPECT_EQ(uri::percent_decode(encoded), original);
}

TEST(UriPercent, KeepSetPreservesCharacters) {
  EXPECT_EQ(uri::percent_encode("a/b", "/"), "a/b");
  EXPECT_EQ(uri::percent_encode("a/b"), "a%2Fb");
}

TEST(UriPercent, MalformedEscapesPassThrough) {
  EXPECT_EQ(uri::percent_decode("%GZ"), "%GZ");
  EXPECT_EQ(uri::percent_decode("%2"), "%2");
  EXPECT_EQ(uri::percent_decode("100%"), "100%");
}
