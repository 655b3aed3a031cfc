// Unit tests for the common module: string utilities, wildcard matching,
// TextCursor scanning, deterministic RNG, the shared FNV-1a hash.
#include <gtest/gtest.h>

#include <set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/text_cursor.hpp"
#include "nav/route.hpp"
#include "repl/wire.hpp"

namespace ns = navsep::strings;

TEST(Strings, TrimRemovesXmlWhitespaceOnBothSides) {
  EXPECT_EQ(ns::trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(ns::trim(""), "");
  EXPECT_EQ(ns::trim(" \n\t "), "");
  EXPECT_EQ(ns::trim("x"), "x");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  auto parts = ns::split_ws("  one\ttwo \n three  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
  EXPECT_TRUE(ns::split_ws("   ").empty());
}

TEST(Strings, JoinConcatenatesWithSeparator) {
  std::vector<std::string> v{"a", "b", "c"};
  EXPECT_EQ(ns::join(v, ", "), "a, b, c");
  EXPECT_EQ(ns::join(std::vector<std::string>{}, ","), "");
}

TEST(Strings, ReplaceAllHandlesOverlapsAndMisses) {
  EXPECT_EQ(ns::replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ns::replace_all("hello", "xyz", "!"), "hello");
  EXPECT_EQ(ns::replace_all("abcabc", "abc", ""), "");
}

TEST(Strings, NormalizeSpaceCollapsesRuns) {
  EXPECT_EQ(ns::normalize_space("  a \t b\n\nc "), "a b c");
  EXPECT_EQ(ns::normalize_space(""), "");
  EXPECT_EQ(ns::normalize_space("   "), "");
}

TEST(Strings, WildcardBasics) {
  EXPECT_TRUE(ns::wildcard_match("*", ""));
  EXPECT_TRUE(ns::wildcard_match("*", "anything"));
  EXPECT_TRUE(ns::wildcard_match("pain*", "painting"));
  EXPECT_TRUE(ns::wildcard_match("*ing", "painting"));
  EXPECT_TRUE(ns::wildcard_match("p*g", "painting"));
  EXPECT_TRUE(ns::wildcard_match("p?inting", "painting"));
  EXPECT_FALSE(ns::wildcard_match("p?inting", "paintings"));
  EXPECT_FALSE(ns::wildcard_match("p?nting", "painting"));
  EXPECT_FALSE(ns::wildcard_match("pain", "painting"));
  EXPECT_FALSE(ns::wildcard_match("", "x"));
  EXPECT_TRUE(ns::wildcard_match("", ""));
}

TEST(Strings, WildcardBacktracksAcrossMultipleStars) {
  EXPECT_TRUE(ns::wildcard_match("*a*b*", "xaybz"));
  EXPECT_TRUE(ns::wildcard_match("*a*b*", "ab"));
  EXPECT_FALSE(ns::wildcard_match("*a*b*", "ba"));
  EXPECT_TRUE(ns::wildcard_match("a**b", "ab"));
}

TEST(TextCursor, TracksLineAndColumn) {
  navsep::TextCursor cur("ab\ncd");
  EXPECT_EQ(cur.position().line, 1u);
  cur.advance(3);  // consume 'a','b','\n'
  EXPECT_EQ(cur.position().line, 2u);
  EXPECT_EQ(cur.position().column, 1u);
  EXPECT_EQ(cur.peek(), 'c');
}

TEST(TextCursor, ConsumeAndExpect) {
  navsep::TextCursor cur("<?xml?>");
  EXPECT_TRUE(cur.consume("<?"));
  EXPECT_FALSE(cur.consume("abc"));
  EXPECT_NO_THROW(cur.expect("xml", "xml"));
  EXPECT_THROW(cur.expect("zzz", "zzz"), navsep::ParseError);
}

TEST(TextCursor, TakeUntilThrowsWhenDelimiterMissing) {
  navsep::TextCursor cur("no delimiter here");
  EXPECT_THROW((void)cur.take_until("-->"), navsep::ParseError);
}

TEST(TextCursor, TakeWhileStopsAtPredicateBoundary) {
  navsep::TextCursor cur("abc123");
  auto alpha = cur.take_while(navsep::strings::is_alpha);
  EXPECT_EQ(alpha, "abc");
  EXPECT_EQ(cur.peek(), '1');
}

TEST(Rng, DeterministicForSameSeed) {
  navsep::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  navsep::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  navsep::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, BetweenIsInclusive) {
  navsep::Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.between(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, ShuffleKeepsAllElements) {
  navsep::Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 6u);
}

TEST(Rng, WordHasRequestedLength) {
  navsep::Rng rng(3);
  EXPECT_EQ(rng.word(6).size(), 6u);
  EXPECT_EQ(rng.word(0).size(), 0u);
}

// One FNV-1a 64 serves every layer. Its published test vectors, the
// wire checksum, and a route token measured before route_token used it.
TEST(Hash, OneFnv1aEverywhere) {
  EXPECT_EQ(navsep::hash_bytes(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(navsep::hash_bytes("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(navsep::hash_bytes("foobar"), 0x85944171f73967e8ull);
  for (const char* text : {"", "a", "foobar", "links.xml"}) {
    EXPECT_EQ(navsep::repl::wire_checksum(text), navsep::hash_bytes(text));
  }
  EXPECT_EQ(navsep::nav::route_token({"authors", "@ByAuthor / next*",
                                      navsep::nav::RouteCompile::Lazy}),
            0xe8d8f230ddaa5fd2ull);
}
