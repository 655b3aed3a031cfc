// Unit + property tests for the Myers diff and site-delta statistics.
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "diff/diff.hpp"

namespace diff = navsep::diff;

TEST(DiffSplit, LinesWithAndWithoutTrailingNewline) {
  EXPECT_EQ(diff::split_lines("a\nb\n").size(), 2u);
  EXPECT_EQ(diff::split_lines("a\nb").size(), 2u);
  EXPECT_EQ(diff::split_lines("").size(), 0u);
  EXPECT_EQ(diff::split_lines("\n").size(), 1u);
  EXPECT_EQ(diff::split_lines("\n\n").size(), 2u);
}

TEST(DiffStats, IdenticalInputsAreUnchanged) {
  diff::Stats s = diff::stats("a\nb\nc\n", "a\nb\nc\n");
  EXPECT_TRUE(s.unchanged());
  EXPECT_EQ(s.hunks, 0u);
}

TEST(DiffStats, PureInsertion) {
  diff::Stats s = diff::stats("a\nc\n", "a\nb\nc\n");
  EXPECT_EQ(s.lines_added, 1u);
  EXPECT_EQ(s.lines_deleted, 0u);
  EXPECT_EQ(s.hunks, 1u);
  EXPECT_EQ(s.bytes_added, 2u);  // "b" + newline
}

TEST(DiffStats, PureDeletion) {
  diff::Stats s = diff::stats("a\nb\nc\n", "a\nc\n");
  EXPECT_EQ(s.lines_added, 0u);
  EXPECT_EQ(s.lines_deleted, 1u);
}

TEST(DiffStats, Replacement) {
  diff::Stats s = diff::stats("a\nOLD\nc\n", "a\nNEW\nc\n");
  EXPECT_EQ(s.lines_added, 1u);
  EXPECT_EQ(s.lines_deleted, 1u);
  EXPECT_EQ(s.hunks, 1u);
}

TEST(DiffStats, TwoSeparatedChangesAreTwoHunks) {
  diff::Stats s = diff::stats("1\n2\n3\n4\n5\n6\n7\n",
                              "1\nX\n3\n4\n5\nY\n7\n");
  EXPECT_EQ(s.hunks, 2u);
  EXPECT_EQ(s.lines_changed(), 4u);
}

TEST(DiffStats, FromAndToEmpty) {
  diff::Stats grow = diff::stats("", "a\nb\n");
  EXPECT_EQ(grow.lines_added, 2u);
  diff::Stats shrink = diff::stats("a\nb\n", "");
  EXPECT_EQ(shrink.lines_deleted, 2u);
}

TEST(DiffOps, ScriptTransformsAToB) {
  // Property: applying the edit script to `a` yields `b`.
  auto apply = [](std::string_view a, std::string_view b) {
    auto la = diff::split_lines(a);
    auto lb = diff::split_lines(b);
    std::vector<std::string_view> result;
    for (const diff::Op& op : diff::diff_lines(a, b)) {
      switch (op.kind) {
        case diff::OpKind::Equal:
          for (std::size_t i = 0; i < op.count; ++i) {
            result.push_back(la[op.a_start + i]);
          }
          break;
        case diff::OpKind::Insert:
          for (std::size_t i = 0; i < op.count; ++i) {
            result.push_back(lb[op.b_start + i]);
          }
          break;
        case diff::OpKind::Delete:
          break;
      }
    }
    return result;
  };
  const char* a = "alpha\nbeta\ngamma\ndelta\n";
  const char* b = "alpha\nGAMMA\ngamma\nepsilon\n";
  EXPECT_EQ(apply(a, b), diff::split_lines(b));
}

class DiffRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiffRandomized, ScriptReconstructsTarget) {
  navsep::Rng rng(GetParam());
  auto random_doc = [&rng] {
    std::string out;
    std::size_t n = rng.below(30);
    for (std::size_t i = 0; i < n; ++i) {
      out += rng.word(1 + rng.below(4));
      out += '\n';
    }
    return out;
  };
  for (int round = 0; round < 20; ++round) {
    std::string a = random_doc();
    std::string b = random_doc();
    auto la = diff::split_lines(a);
    auto lb = diff::split_lines(b);
    std::vector<std::string_view> rebuilt;
    std::size_t equal = 0;
    for (const diff::Op& op : diff::diff_lines(a, b)) {
      if (op.kind == diff::OpKind::Equal) {
        equal += op.count;
        for (std::size_t i = 0; i < op.count; ++i) {
          ASSERT_EQ(la[op.a_start + i], lb[op.b_start + i]);
          rebuilt.push_back(la[op.a_start + i]);
        }
      } else if (op.kind == diff::OpKind::Insert) {
        for (std::size_t i = 0; i < op.count; ++i) {
          rebuilt.push_back(lb[op.b_start + i]);
        }
      }
    }
    ASSERT_EQ(rebuilt, lb) << "seed " << GetParam() << " round " << round;
    // Sanity: stats count exactly the non-equal lines.
    diff::Stats s = diff::stats(a, b);
    EXPECT_EQ(s.lines_added, lb.size() - equal);
    EXPECT_EQ(s.lines_deleted, la.size() - equal);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffRandomized,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

TEST(DiffUnified, RendersHeadersAndHunks) {
  std::string u = diff::unified("a\nb\nc\nd\ne\n", "a\nb\nX\nd\ne\n",
                                "before.html", "after.html", 1);
  EXPECT_NE(u.find("--- before.html"), std::string::npos);
  EXPECT_NE(u.find("+++ after.html"), std::string::npos);
  EXPECT_NE(u.find("-c"), std::string::npos);
  EXPECT_NE(u.find("+X"), std::string::npos);
  EXPECT_NE(u.find("@@ -2,3 +2,3 @@"), std::string::npos);
}

TEST(DiffSites, CountsTouchedFiles) {
  std::vector<std::pair<std::string, std::string>> before{
      {"guitar.html", "<h1>Guitar</h1>\n<a>index</a>\n"},
      {"guernica.html", "<h1>Guernica</h1>\n<a>index</a>\n"},
      {"index.html", "<ul>...</ul>\n"},
  };
  std::vector<std::pair<std::string, std::string>> after{
      {"guitar.html", "<h1>Guitar</h1>\n<a>index</a>\n<a>next</a>\n"},
      {"guernica.html", "<h1>Guernica</h1>\n<a>index</a>\n<a>next</a>\n"},
      {"index.html", "<ul>...</ul>\n"},
  };
  diff::SiteDelta d = diff::compare_sites(before, after);
  EXPECT_EQ(d.files_total, 3u);
  EXPECT_EQ(d.files_touched, 2u);
  EXPECT_EQ(d.line_stats.lines_added, 2u);
  ASSERT_EQ(d.touched_paths.size(), 2u);
  EXPECT_EQ(d.touched_paths[0], "guernica.html");
}

TEST(DiffSites, AddedAndRemovedFiles) {
  std::vector<std::pair<std::string, std::string>> before{
      {"old.html", "x\n"}};
  std::vector<std::pair<std::string, std::string>> after{
      {"new.html", "y\ny\n"}};
  diff::SiteDelta d = diff::compare_sites(before, after);
  EXPECT_EQ(d.files_total, 2u);
  EXPECT_EQ(d.files_touched, 2u);
  EXPECT_EQ(d.line_stats.lines_deleted, 1u);
  EXPECT_EQ(d.line_stats.lines_added, 2u);
}

TEST(DiffSites, IdenticalSitesUntouched) {
  std::vector<std::pair<std::string, std::string>> site{
      {"a.html", "same\n"}, {"b.html", "same\n"}};
  diff::SiteDelta d = diff::compare_sites(site, site);
  EXPECT_EQ(d.files_touched, 0u);
  EXPECT_TRUE(d.line_stats.unchanged());
}

TEST(DiffMyers, StopsPastItsEditBudget) {
  // Turning a into b takes three edits: delete 2, insert 9, insert 6.
  const std::vector<std::uint64_t> a{1, 2, 3, 4, 5};
  const std::vector<std::uint64_t> b{1, 9, 3, 4, 5, 6};
  EXPECT_FALSE(diff::myers(a, b, 2).has_value());
  const auto matches = diff::myers(a, b, 3);
  ASSERT_TRUE(matches.has_value());
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const diff::Match& m : *matches) pairs.emplace_back(m.a_index, m.b_index);
  const std::vector<std::pair<std::size_t, std::size_t>> expected{
      {0, 0}, {2, 2}, {3, 3}, {4, 4}};
  EXPECT_EQ(pairs, expected);
  // An empty side is all inserts or all deletes: within budget or not.
  const std::vector<std::uint64_t> none;
  EXPECT_FALSE(diff::myers(none, b, 5).has_value());
  ASSERT_TRUE(diff::myers(none, b, 6).has_value());
  EXPECT_TRUE(diff::myers(none, b, 6)->empty());
}

TEST(DiffMyers, CommonEndsNeverOverlap) {
  const std::vector<int> a{1, 2, 1};
  const std::vector<int> b{1, 2, 1, 2, 1};
  const auto [prefix, suffix] = diff::common_ends(a, b, std::equal_to<>());
  EXPECT_EQ(prefix, 3u);
  EXPECT_EQ(suffix, 0u);
}

TEST(DiffOps, BodyWithoutFinalNewline) {
  const std::vector<diff::Op> ops = diff::diff_lines("a\nb\nc", "a\nX\nc");
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].kind, diff::OpKind::Equal);
  EXPECT_EQ(ops[1].kind, diff::OpKind::Delete);
  EXPECT_EQ(ops[1].a_start, 1u);
  EXPECT_EQ(ops[2].kind, diff::OpKind::Insert);
  EXPECT_EQ(ops[2].b_start, 1u);
  EXPECT_EQ(ops[3].kind, diff::OpKind::Equal);
  EXPECT_EQ(ops[3].a_start, 2u);
  EXPECT_EQ(ops[3].count, 1u);
  // Lines are what is counted: a final newline alone is not a line, which
  // is why the wire carries it beside a line script.
  EXPECT_TRUE(diff::stats("a\nb", "a\nb\n").unchanged());
  EXPECT_EQ(diff::stats("a\nb", "a\nc").lines_changed(), 2u);
}

TEST(DiffOps, RewritePastTheTraceLimitIsAWholeReplacement) {
  std::string a;
  std::string b;
  for (int i = 0; i < 2100; ++i) {
    a += "old " + std::to_string(i) + "\n";
    b += "new " + std::to_string(i) + "\n";
  }
  // 4200 edits > 4096: one delete run and one insert run.
  const std::vector<diff::Op> ops = diff::diff_lines(a, b);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].kind, diff::OpKind::Delete);
  EXPECT_EQ(ops[0].count, 2100u);
  EXPECT_EQ(ops[1].kind, diff::OpKind::Insert);
  EXPECT_EQ(ops[1].count, 2100u);
  // Within the limit, the same lines pair up again.
  const std::size_t middle = a.find("old 1050\n");
  const std::vector<diff::Op> near = diff::diff_lines(
      a, a.substr(0, middle) + "inserted\n" + a.substr(middle));
  ASSERT_EQ(near.size(), 3u);
  EXPECT_EQ(near[1].kind, diff::OpKind::Insert);
  EXPECT_EQ(near[1].count, 1u);
}

// Where several shortest scripts exist, Myers' tie-break picks one, and
// e1's hunk counts and the migration report depend on which. These
// scripts are the ones diff_lines has always returned.
TEST(DiffOps, TieBreaksArePinned) {
  using K = diff::OpKind;
  const auto ops_of = [](std::string_view a, std::string_view b) {
    std::vector<std::tuple<K, std::size_t, std::size_t, std::size_t>> out;
    for (const diff::Op& op : diff::diff_lines(a, b)) {
      out.emplace_back(op.kind, op.a_start, op.b_start, op.count);
    }
    return out;
  };
  EXPECT_EQ(ops_of("a\nb\n", "b\na\n"),
            (std::vector<std::tuple<K, std::size_t, std::size_t, std::size_t>>{
                {K::Delete, 0, 0, 1}, {K::Equal, 1, 0, 1}, {K::Insert, 2, 1, 1}}));
  EXPECT_EQ(ops_of("x\na\nb\nc\ny\n", "x\nc\nb\na\ny\n"),
            (std::vector<std::tuple<K, std::size_t, std::size_t, std::size_t>>{
                {K::Equal, 0, 0, 1},
                {K::Delete, 1, 1, 2},
                {K::Equal, 3, 1, 1},
                {K::Insert, 4, 2, 2},
                {K::Equal, 4, 4, 1}}));
  // Here the paths on diagonals k-1 and k+1 tie; the search extends the
  // one on k-1 by a delete, as it always has.
  EXPECT_EQ(ops_of("c\nc\na\n", "a\na\nc\nb\nc\n"),
            (std::vector<std::tuple<K, std::size_t, std::size_t, std::size_t>>{
                {K::Insert, 0, 0, 2},
                {K::Equal, 0, 2, 1},
                {K::Insert, 1, 3, 1},
                {K::Equal, 1, 4, 1},
                {K::Delete, 2, 5, 1}}));
  EXPECT_EQ(diff::unified("a\nb\n", "b\na\n", "a", "b", 1),
            "--- a\n+++ b\n@@ -1,2 +1,2 @@\n-a\n b\n+a\n");
}
