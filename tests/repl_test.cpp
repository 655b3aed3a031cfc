// Snapshot replication: wire round-trips, delta precision, hash
// derivation, malformed-input rejection, and socketed pub/sub fleets.
//
// The contract under test is byte-level and end-to-end: a replica that
// has only ever seen wire frames must serve — through an UNMODIFIED
// serve::ConcurrentServer over its own SnapshotStore — exactly the
// bytes the origin serves, for the base site and for every registered
// profile. On top of that sit the delta properties (a single-family
// edit ships the family's segment, not the site; unchanged segments are
// carried forward by the slice-hash tables) and the resync protocol
// (mid-stream connect gets a FULL frame; lagging past max_delta_gap
// forces one).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "diff/diff.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "oracle.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "repl/transport.hpp"
#include "repl/wire.hpp"
#include "serve/concurrent_server.hpp"

namespace {

namespace core = navsep::core;
namespace diff = navsep::diff;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace repl = navsep::repl;
namespace serve = navsep::serve;
namespace site = navsep::site;

using SnapPtr = std::shared_ptr<const serve::SiteSnapshot>;

std::unique_ptr<nav::Engine> make_engine() {
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .schema()
                    .access(hm::AccessStructureKind::IndexedGuidedTour,
                            "picasso")
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();
  engine->register_profile({"kiosk", {}});
  engine->register_profile({"tour", {"ByAuthor"}});
  engine->register_profile({"everything", {"ByAuthor", "ByMovement"}});
  return engine;
}

/// Byte identity between two snapshots, across every surface a reader
/// can touch: artifact bytes, base responses, and per-profile responses
/// for every artifact path (including the 404 side).
void expect_snapshots_identical(const serve::SiteSnapshot& a,
                                const serve::SiteSnapshot& b) {
  ASSERT_EQ(a.epoch(), b.epoch());
  ASSERT_EQ(a.base(), b.base());
  ASSERT_EQ(a.files().size(), b.files().size());
  for (const auto& [path, bytes] : a.files()) {
    auto it = b.files().find(path);
    ASSERT_NE(it, b.files().end()) << path;
    ASSERT_EQ(*bytes, *it->second) << path;
  }
  ASSERT_EQ(a.profiles().size(), b.profiles().size());
  for (const auto& [path, bytes] : a.files()) {
    site::Response ra = a.respond(path);
    site::Response rb = b.respond(path);
    ASSERT_EQ(ra.status, rb.status) << path;
    if (ra.ok()) ASSERT_EQ(*ra.body, *rb.body) << path;
    for (const nav::Profile& profile : a.profiles()) {
      site::Response pa = a.respond_as(profile.name, path);
      site::Response pb = b.respond_as(profile.name, path);
      ASSERT_EQ(pa.status, pb.status) << profile.name << " " << path;
      if (pa.ok()) {
        ASSERT_EQ(*pa.body, *pb.body) << profile.name << " " << path;
      }
    }
  }
}

/// Rotate the first context of `family_name` — the canonical
/// single-family edit (touches that family's linkbase, nothing else).
void rotate_family(nav::Engine& engine, const std::string& family_name) {
  (void)engine.edit_context_family(
      family_name, [](hm::ContextFamily& family) {
        std::vector<hm::NavigationalContext> contexts = family.contexts();
        if (contexts.empty()) return;
        auto& context = contexts.front();
        std::vector<std::string> ids = context.node_ids();
        if (ids.size() < 2) return;
        std::rotate(ids.begin(), ids.begin() + 1, ids.end());
        context = hm::NavigationalContext(context.family(), context.name(),
                                          std::move(ids));
        family.replace_contexts(std::move(contexts));
      });
}

// --- wire format: round trips -------------------------------------------------

TEST(ReplWire, FullRoundTripIsByteIdentical) {
  auto engine = make_engine();
  SnapPtr original = engine->snapshots().current();
  ASSERT_NE(original, nullptr);

  const std::string payload = repl::encode_full(*original);
  SnapPtr decoded = repl::decode_full(payload);
  ASSERT_NE(decoded, nullptr);
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(*original, *decoded));
}

TEST(ReplWire, FrameRoundTripPreservesTypeAndPayload) {
  const std::string framed =
      repl::encode_frame(repl::FrameType::Delta, "payload-bytes");
  repl::Frame frame = repl::parse_frame(framed);
  EXPECT_EQ(frame.type, repl::FrameType::Delta);
  EXPECT_EQ(frame.payload, "payload-bytes");
}

TEST(ReplWire, DeltaAppliesToByteIdentity) {
  auto engine = make_engine();
  SnapPtr before = engine->snapshots().current();

  rotate_family(*engine, "ByAuthor");
  (void)engine->retitle_node("guitar", "The Guitar, retitled");
  SnapPtr after = engine->snapshots().current();
  ASSERT_GT(after->epoch(), before->epoch());

  const std::string delta = repl::encode_delta(*before, *after);
  SnapPtr applied = repl::apply_delta(delta, *before);
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(*after, *applied));
}

TEST(ReplWire, DeltaCoalescesManyEpochs) {
  auto engine = make_engine();
  SnapPtr before = engine->snapshots().current();
  for (int i = 0; i < 5; ++i) {
    (void)engine->retitle_node("guitar", "t" + std::to_string(i));
    rotate_family(*engine, i % 2 == 0 ? "ByAuthor" : "ByMovement");
  }
  SnapPtr after = engine->snapshots().current();
  ASSERT_GT(after->epoch(), before->epoch() + 1);

  // One delta spanning all intermediate epochs applies cleanly.
  const std::string delta = repl::encode_delta(*before, *after);
  SnapPtr applied = repl::apply_delta(delta, *before);
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(*after, *applied));
}

// --- delta precision: hash-driven selection -----------------------------------

TEST(ReplWire, SingleFamilyEditShipsFarLessThanFull) {
  auto engine = make_engine();
  SnapPtr before = engine->snapshots().current();
  rotate_family(*engine, "ByAuthor");
  SnapPtr after = engine->snapshots().current();

  const std::string full = repl::encode_full(*after);
  const std::string delta = repl::encode_delta(*before, *after);
  // The delta carries the edited family's segment + the re-authored
  // linkbase artifact + the touched pages; the full carries the site.
  EXPECT_LT(delta.size() * 2, full.size())
      << "delta " << delta.size() << " B vs full " << full.size() << " B";

  SnapPtr applied = repl::apply_delta(delta, *before);
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(*after, *applied));
}

TEST(ReplWire, UntouchedSnapshotProducesNearEmptyDelta) {
  auto engine = make_engine();
  SnapPtr before = engine->snapshots().current();
  // A blanket rebuild republises (new epoch) without changing any bytes.
  engine->rebuild();
  SnapPtr after = engine->snapshots().current();
  ASSERT_GT(after->epoch(), before->epoch());

  const std::string delta = repl::encode_delta(*before, *after);
  const std::string full = repl::encode_full(*after);
  // Everything is carried forward: the delta is bookkeeping, not bytes.
  EXPECT_LT(delta.size() * 10, full.size())
      << "delta " << delta.size() << " B vs full " << full.size() << " B";
  SnapPtr applied = repl::apply_delta(delta, *before);
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(*after, *applied));
}

// --- satellite 1: the derive-when-absent hash path ----------------------------

TEST(ReplHashes, DerivedTableEqualsOriginThreadedTable) {
  auto engine = make_engine();
  // Mutate a little so the tables are non-trivial.
  rotate_family(*engine, "ByMovement");
  (void)engine->retitle_node("guernica", "Guernica (1937)");
  SnapPtr snap = engine->snapshots().current();

  // The origin threads hashes from its arc-table rebuild...
  auto threaded = snap->slice_hashes();
  ASSERT_NE(threaded, nullptr);
  ASSERT_NE(snap->overlay_arcs(), nullptr);
  // ...and the explicit derive path must reproduce them exactly.
  auto derived = serve::SiteSnapshot::derive_slice_hashes(*snap->overlay_arcs());
  ASSERT_NE(derived, nullptr);
  EXPECT_EQ(*derived, *threaded);
}

TEST(ReplHashes, DecodedSnapshotDerivesHashesAndValidatesOverlays) {
  auto engine = make_engine();
  SnapPtr original = engine->snapshots().current();
  SnapPtr decoded = repl::decode_full(repl::encode_full(*original));

  // The wire does not carry hashes; the decoded snapshot derived them —
  // and they must equal the origin's threaded table, or overlay caching
  // on a replica would diverge from the origin's.
  ASSERT_NE(decoded->slice_hashes(), nullptr);
  ASSERT_NE(original->slice_hashes(), nullptr);
  EXPECT_EQ(*decoded->slice_hashes(), *original->slice_hashes());

  // And the derived hashes drive overlay validity exactly like the
  // origin's: same token for the same (profile, page).
  const nav::Profile* tour = original->find_profile("tour");
  ASSERT_NE(tour, nullptr);
  const nav::Profile* replica_tour = decoded->find_profile("tour");
  ASSERT_NE(replica_tour, nullptr);
  for (const auto& [path, bytes] : original->files()) {
    serve::OverlayValidity mine = original->overlay_validity(*tour, path);
    serve::OverlayValidity theirs =
        decoded->overlay_validity(*replica_tour, path);
    EXPECT_EQ(mine.profile_token, theirs.profile_token) << path;
    EXPECT_EQ(mine.structure_slice, theirs.structure_slice) << path;
    EXPECT_EQ(mine.family_slices, theirs.family_slices) << path;
  }
}

// --- wire v4: edit scripts round-trip byte for byte ---------------------------

/// Rounds of the seeded round-trip property below. The environment
/// variable NAVSEP_WIRE_ROUNDS raises it for a long run.
int wire_rounds() {
  const char* env = std::getenv("NAVSEP_WIRE_ROUNDS");
  const int rounds = env != nullptr ? std::atoi(env) : 0;
  return rounds > 0 ? rounds : 300;
}

/// A line from a small pool, so bodies hold runs of identical lines;
/// some are empty, some blank, some end in '\r' (CRLF bodies).
std::string random_line(navsep::Rng& rng) {
  static const char* const kPool[] = {"<li>same</li>", "<li>same</li>", "",
                                      "  ", "<p>crlf</p>\r",
                                      "<a href=\"p.html\">p</a>"};
  std::string line = kPool[rng.below(std::size(kPool))];
  if (rng.chance(0.4)) line += std::to_string(rng.below(100));
  return line;
}

std::string join_body(const std::vector<std::string>& lines,
                      bool final_newline) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    out += lines[i];
  }
  if (final_newline) out += '\n';
  return out;
}

/// Empty, "\n" alone, or up to 30 pool lines with or without a final
/// newline.
std::string random_body(navsep::Rng& rng) {
  switch (rng.below(6)) {
    case 0:
      return "";
    case 1:
      return "\n";
    default: {
      std::vector<std::string> lines(rng.below(30));
      for (std::string& line : lines) line = random_line(rng);
      return join_body(lines, rng.chance(0.7));
    }
  }
}

/// Insert, drop or move one to four items.
template <typename T, typename Make>
void edit_items(navsep::Rng& rng, std::vector<T>& items, Make make) {
  const auto at = [&](std::size_t bound) {
    return static_cast<std::ptrdiff_t>(rng.below(bound));
  };
  for (std::uint64_t e = 0, edits = 1 + rng.below(4); e < edits; ++e) {
    const std::uint64_t what = rng.below(3);
    if (what == 0 || items.empty()) {
      items.insert(items.begin() + at(items.size() + 1), make());
    } else if (what == 1) {
      items.erase(items.begin() + at(items.size()));
    } else {
      const std::ptrdiff_t from = at(items.size());
      T moved = std::move(items[static_cast<std::size_t>(from)]);
      items.erase(items.begin() + from);
      items.insert(items.begin() + at(items.size() + 1), std::move(moved));
    }
  }
}

std::string page_uri(navsep::Rng& rng) {
  return "http://example.org/p" + std::to_string(rng.below(6)) + ".html";
}

serve::SnapshotArc random_bucket_arc(navsep::Rng& rng,
                                     const std::string& from) {
  return serve::SnapshotArc{from, page_uri(rng),
                            rng.chance(0.5) ? "nav:next" : "nav:index",
                            "t" + std::to_string(rng.below(4)),
                            rng.chance(0.8)};
}

core::NavArc random_nav_arc(navsep::Rng& rng, const std::string& source) {
  core::NavArc arc;
  arc.from = page_uri(rng);
  arc.to = page_uri(rng);
  arc.role = rng.chance(0.5) ? "next" : "prev";
  arc.title = "t" + std::to_string(rng.below(4));
  arc.context = rng.chance(0.5) ? "" : "ByAuthor:one";
  arc.source = source;
  arc.ordinal = rng.below(3);
  return arc;
}

serve::SnapshotState random_state(navsep::Rng& rng) {
  serve::SnapshotState state;
  state.base = "http://example.org/";
  state.epoch = 1;
  for (int i = 0; i < 6; ++i) {
    state.files.emplace("f" + std::to_string(i) + ".html",
                        std::make_shared<const std::string>(random_body(rng)));
  }
  for (int i = 0; i < 4; ++i) {
    const std::string from = "http://example.org/p" + std::to_string(i) + ".html";
    std::vector<serve::SnapshotArc> arcs(rng.below(8));
    for (serve::SnapshotArc& arc : arcs) arc = random_bucket_arc(rng, from);
    state.arcs_by_from.emplace(from, std::move(arcs));
  }
  auto arcs = std::make_shared<std::vector<core::NavArc>>();
  for (const char* source : {"links.xml", "links-a.xml", "links-b.xml"}) {
    for (std::uint64_t i = 0, n = rng.below(16); i < n; ++i) {
      arcs->push_back(random_nav_arc(rng, source));
    }
  }
  state.overlays.arcs = std::move(arcs);
  state.overlays.families = {{"A", "links-a.xml"}, {"B", "links-b.xml"}};
  return state;
}

/// The next epoch of `a`: bodies, buckets and segments edited, added and
/// removed. Every edited segment gains one arc with a title never used
/// before, so its slice-hash table moves: a segment whose table stays
/// put is carried forward, which is exact only for an unchanged one.
serve::SnapshotState edited_state(navsep::Rng& rng,
                                  const serve::SnapshotState& a,
                                  std::uint64_t& fresh) {
  serve::SnapshotState b = a;
  b.epoch = a.epoch + 1;
  for (auto it = b.files.begin(); it != b.files.end();) {
    if (rng.chance(0.1)) {
      it = b.files.erase(it);
      continue;
    }
    if (rng.chance(0.6)) {
      std::vector<std::string> lines;
      for (std::string_view line : diff::split_lines(*it->second)) {
        lines.emplace_back(line);
      }
      edit_items(rng, lines, [&] { return random_line(rng); });
      const bool final_newline =
          !it->second->empty() && it->second->back() == '\n';
      it->second = std::make_shared<const std::string>(join_body(
          lines, rng.chance(0.2) ? !final_newline : final_newline));
    }
    ++it;
  }
  if (rng.chance(0.3)) {
    b.files.emplace("new" + std::to_string(fresh++) + ".html",
                    std::make_shared<const std::string>(random_body(rng)));
  }

  for (auto it = b.arcs_by_from.begin(); it != b.arcs_by_from.end();) {
    if (rng.chance(0.1)) {
      it = b.arcs_by_from.erase(it);
      continue;
    }
    std::vector<serve::SnapshotArc>& arcs = it->second;
    if (rng.chance(0.5)) {
      edit_items(rng, arcs, [&] { return random_bucket_arc(rng, it->first); });
    }
    if (!arcs.empty() && rng.chance(0.3)) {  // differs only in traversable
      serve::SnapshotArc& arc = arcs[rng.below(arcs.size())];
      arc.traversable = !arc.traversable;
    }
    ++it;
  }
  if (rng.chance(0.2)) {
    const std::string from = "http://example.org/q" + std::to_string(fresh++);
    b.arcs_by_from[from] = {random_bucket_arc(rng, from)};
  }

  auto arcs = std::make_shared<std::vector<core::NavArc>>();
  std::vector<std::string> sources{"links.xml", "links-a.xml", "links-b.xml"};
  if (rng.chance(0.2)) {
    sources.push_back("links-c.xml");
    b.overlays.families.push_back({"C", "links-c.xml"});
  }
  for (const std::string& source : sources) {
    std::vector<core::NavArc> segment;
    for (const core::NavArc& arc : *a.overlays.arcs) {
      if (arc.source == source) segment.push_back(arc);
    }
    if (rng.chance(0.1)) continue;  // the segment goes away
    if (segment.empty() || rng.chance(0.6)) {
      if (!segment.empty() && rng.chance(0.5)) {
        segment.erase(segment.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(segment.size())));
      }
      // Swap two arcs leaving the same page: that page's slice reorders.
      for (std::size_t i = 0; i + 1 < segment.size() && rng.chance(0.5);
           ++i) {
        for (std::size_t j = i + 1; j < segment.size(); ++j) {
          if (segment[j].from == segment[i].from) {
            std::swap(segment[i], segment[j]);
            break;
          }
        }
      }
      if (!segment.empty() && rng.chance(0.5)) {  // differs only in ordinal
        ++segment[rng.below(segment.size())].ordinal;
      }
      core::NavArc added = random_nav_arc(rng, source);
      added.title = "fresh-" + std::to_string(fresh++);
      segment.insert(segment.begin() + static_cast<std::ptrdiff_t>(
                                           rng.below(segment.size() + 1)),
                     std::move(added));
    }
    arcs->insert(arcs->end(), segment.begin(), segment.end());
  }
  b.overlays.arcs = std::move(arcs);
  return b;
}

void expect_same_state(const serve::SiteSnapshot& want,
                       const serve::SiteSnapshot& got) {
  ASSERT_EQ(want.epoch(), got.epoch());
  ASSERT_EQ(want.files().size(), got.files().size());
  for (const auto& [path, bytes] : want.files()) {
    auto it = got.files().find(path);
    ASSERT_NE(it, got.files().end()) << path;
    ASSERT_EQ(*bytes, *it->second) << path;
  }
  ASSERT_EQ(want.traversal_arcs(), got.traversal_arcs());
  const std::vector<core::NavArc>& wa = *want.overlay_arcs();
  const std::vector<core::NavArc>& ga = *got.overlay_arcs();
  ASSERT_EQ(wa.size(), ga.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].from, ga[i].from) << i;
    EXPECT_EQ(wa[i].to, ga[i].to) << i;
    EXPECT_EQ(wa[i].role, ga[i].role) << i;
    EXPECT_EQ(wa[i].title, ga[i].title) << i;
    EXPECT_EQ(wa[i].context, ga[i].context) << i;
    EXPECT_EQ(wa[i].source, ga[i].source) << i;
    EXPECT_EQ(wa[i].ordinal, ga[i].ordinal) << i;
  }
  EXPECT_EQ(*want.slice_hashes(), *got.slice_hashes());
}

TEST(ReplWire, ScriptedDeltasRoundTripEveryByteAndArc) {
  // How many records of each kind shipped as a script, across all rounds:
  // the property must not pass by shipping everything whole.
  std::size_t scripted_files = 0, scripted_buckets = 0, scripted_segments = 0;
  const int rounds = wire_rounds();
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0x5C219700u + static_cast<std::uint64_t>(round);
    SCOPED_TRACE("seed " + std::to_string(seed));
    navsep::Rng rng(seed);
    std::uint64_t fresh = 0;
    const serve::SnapshotState a_state = random_state(rng);
    const serve::SnapshotState b_state = edited_state(rng, a_state, fresh);
    const serve::SiteSnapshot a(a_state);
    const serve::SiteSnapshot b(b_state);

    const std::string delta = repl::encode_delta(a, b);
    SnapPtr applied = repl::apply_delta(delta, a);
    ASSERT_NO_FATAL_FAILURE(expect_same_state(b, *applied));

    // Each record that moved against a base must be no larger than its
    // whole form. Dropping that record from the base makes it ship whole
    // and leaves every other record as it was, so the two deltas differ
    // by exactly (whole − chosen form) bytes.
    const auto whole_delta_size = [&](serve::SnapshotState base) {
      return repl::encode_delta(serve::SiteSnapshot(std::move(base)), b)
          .size();
    };
    for (const auto& [path, body] : b.files()) {
      auto it = a.files().find(path);
      if (it == a.files().end() || *it->second == *body) continue;
      serve::SnapshotState base = a_state;
      base.files.erase(path);
      const std::size_t whole = whole_delta_size(std::move(base));
      ASSERT_LE(delta.size(), whole) << path;
      scripted_files += delta.size() < whole ? 1 : 0;
    }
    for (const auto& [from, arcs] : b.traversal_arcs()) {
      auto it = a.traversal_arcs().find(from);
      if (it == a.traversal_arcs().end() || it->second == arcs) continue;
      serve::SnapshotState base = a_state;
      base.arcs_by_from.erase(from);
      const std::size_t whole = whole_delta_size(std::move(base));
      ASSERT_LE(delta.size(), whole) << from;
      scripted_buckets += delta.size() < whole ? 1 : 0;
    }
    for (const auto& [source, hashes] : *b.slice_hashes()) {
      auto it = a.slice_hashes()->find(source);
      if (it == a.slice_hashes()->end() || it->second == hashes) continue;
      serve::SnapshotState base = a_state;
      auto kept = std::make_shared<std::vector<core::NavArc>>();
      for (const core::NavArc& arc : *a_state.overlays.arcs) {
        if (arc.source != source) kept->push_back(arc);
      }
      base.overlays.arcs = std::move(kept);
      const std::size_t whole = whole_delta_size(std::move(base));
      ASSERT_LE(delta.size(), whole) << source;
      scripted_segments += delta.size() < whole ? 1 : 0;
    }
  }
  EXPECT_GT(scripted_files, 0u);
  EXPECT_GT(scripted_buckets, 0u);
  EXPECT_GT(scripted_segments, 0u);
}

// --- malformed input ----------------------------------------------------------

TEST(ReplWire, CorruptAndTruncatedFramesThrow) {
  auto engine = make_engine();
  SnapPtr snap = engine->snapshots().current();
  const std::string framed =
      repl::encode_frame(repl::FrameType::Full, repl::encode_full(*snap));

  // Flipped payload byte: checksum mismatch.
  std::string corrupt = framed;
  corrupt[repl::kFrameHeaderSize + corrupt.size() / 2] ^= 0x40;
  EXPECT_THROW((void)repl::parse_frame(corrupt), repl::WireError);

  // Bad magic.
  std::string bad_magic = framed;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW((void)repl::parse_frame(bad_magic), repl::WireError);

  // Truncated payload.
  EXPECT_THROW(
      (void)repl::parse_frame(std::string_view(framed).substr(
          0, framed.size() - 7)),
      repl::WireError);

  // Header too short.
  EXPECT_THROW((void)repl::decode_frame_header("short"), repl::WireError);

  // A FULL payload truncated mid-record must throw, not mis-decode.
  const std::string payload = repl::encode_full(*snap);
  EXPECT_THROW((void)repl::decode_full(
                   std::string_view(payload).substr(0, payload.size() / 2)),
               repl::WireError);
}

TEST(ReplWire, DeltaAgainstWrongBaseThrows) {
  auto engine = make_engine();
  SnapPtr first = engine->snapshots().current();
  (void)engine->retitle_node("guitar", "A");
  SnapPtr second = engine->snapshots().current();
  (void)engine->retitle_node("guitar", "B");
  SnapPtr third = engine->snapshots().current();

  const std::string delta = repl::encode_delta(*second, *third);
  // Valid against `second`…
  EXPECT_NO_THROW((void)repl::apply_delta(delta, *second));
  // …but not against any other epoch: the from-epoch check must fire.
  EXPECT_THROW((void)repl::apply_delta(delta, *first), repl::WireError);
  EXPECT_THROW((void)repl::apply_delta(delta, *third), repl::WireError);
}

TEST(ReplWire, DeltaFrameWithoutPreviousSnapshotThrows) {
  auto engine = make_engine();
  SnapPtr before = engine->snapshots().current();
  (void)engine->retitle_node("guitar", "X");
  SnapPtr after = engine->snapshots().current();

  repl::Frame frame;
  frame.type = repl::FrameType::Delta;
  frame.payload = repl::encode_delta(*before, *after);
  EXPECT_THROW((void)repl::apply_frame(frame, nullptr), repl::WireError);
}

TEST(ReplTransport, EndpointParsing) {
  repl::Endpoint unix_ep = repl::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, repl::Endpoint::Kind::Unix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep.to_string(), "unix:/tmp/x.sock");

  repl::Endpoint tcp_ep = repl::Endpoint::parse("tcp:127.0.0.1:4710");
  EXPECT_EQ(tcp_ep.kind, repl::Endpoint::Kind::Tcp);
  EXPECT_EQ(tcp_ep.host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.port, 4710);

  EXPECT_THROW((void)repl::Endpoint::parse("http:foo"),
               repl::TransportError);
  EXPECT_THROW((void)repl::Endpoint::parse("tcp:nohost"),
               repl::TransportError);
  EXPECT_THROW((void)repl::Endpoint::parse("tcp:1.2.3.4:99999"),
               repl::TransportError);
  EXPECT_THROW((void)repl::Endpoint::parse("unix:"), repl::TransportError);
}

// --- socketed pub/sub ---------------------------------------------------------

TEST(ReplFleet, TcpPublisherFeedsReplicaToByteIdentity) {
  auto engine = make_engine();
  auto publisher =
      engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));

  repl::Replica replica = repl::Replica::connect(publisher->endpoint());
  replica.start();

  for (int i = 0; i < 6; ++i) {
    (void)engine->retitle_node("guitar", "v" + std::to_string(i));
    rotate_family(*engine, i % 2 == 0 ? "ByAuthor" : "ByMovement");
  }
  const std::uint64_t target = engine->snapshots().epoch();
  ASSERT_TRUE(replica.wait_for_epoch(target, std::chrono::seconds(30)))
      << replica.error();

  SnapPtr origin_snap = engine->snapshots().current();
  SnapPtr replica_snap = replica.store().current();
  ASSERT_NO_FATAL_FAILURE(
      expect_snapshots_identical(*origin_snap, *replica_snap));

  // The replica's store drives an UNMODIFIED ConcurrentServer: base and
  // profile-scoped serving over replicated state matches the origin's
  // full-build oracle exactly.
  serve::ConcurrentServer server(replica.store(), 4);
  for (const auto& [path, bytes] : origin_snap->files()) {
    site::Response r = server.get(path);
    ASSERT_TRUE(r.ok()) << path;
    EXPECT_EQ(*r.body, *bytes) << path;
  }
  for (const nav::Profile& profile : origin_snap->profiles()) {
    const std::map<std::string, std::string> oracle =
        navsep::testing::profile_oracle(*engine, profile);
    for (const auto& [path, bytes] : oracle) {
      site::Response r = server.get(path, profile.name);
      ASSERT_TRUE(r.ok()) << profile.name << " " << path;
      EXPECT_EQ(*r.body, bytes) << profile.name << " " << path;
    }
  }

  // The stream actually used deltas, not a FULL per epoch. Under load
  // the initial subscribe-FULL may already cover every epoch above, so
  // force one post-convergence epoch: the sender is caught up now, the
  // gap is 1 <= max_delta_gap, and the next frame must be a DELTA.
  (void)engine->retitle_node("guitar", "post-sync");
  ASSERT_TRUE(replica.wait_for_epoch(engine->snapshots().epoch(),
                                     std::chrono::seconds(30)))
      << replica.error();
  EXPECT_GE(replica.stats().deltas_applied, 1u);
  EXPECT_GE(replica.stats().fulls_applied, 1u);
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(
      *engine->snapshots().current(), *replica.store().current()));
}

TEST(ReplFleet, MidStreamConnectStartsFromFullAndConverges) {
  auto engine = make_engine();
  auto publisher =
      engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));

  // Mutate BEFORE the replica exists: it must sync from a FULL frame.
  for (int i = 0; i < 4; ++i) {
    (void)engine->retitle_node("guernica", "g" + std::to_string(i));
  }
  repl::Replica late = repl::Replica::connect(publisher->endpoint());
  late.start();
  const std::uint64_t target = engine->snapshots().epoch();
  ASSERT_TRUE(late.wait_for_epoch(target, std::chrono::seconds(30)))
      << late.error();
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(
      *engine->snapshots().current(), *late.store().current()));
  EXPECT_EQ(late.stats().fulls_applied, 1u);

  // And it keeps following with deltas afterwards.
  rotate_family(*engine, "ByAuthor");
  ASSERT_TRUE(late.wait_for_epoch(engine->snapshots().epoch(),
                                  std::chrono::seconds(30)))
      << late.error();
  EXPECT_GE(late.stats().deltas_applied, 1u);
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(
      *engine->snapshots().current(), *late.store().current()));
}

TEST(ReplFleet, ZeroDeltaGapForcesFullResyncs) {
  auto engine = make_engine();
  // max_delta_gap = 0: every advance exceeds the gap — the publisher
  // must take the resync path for every epoch, and the replica must
  // still converge to byte identity (FULL frames are self-contained).
  repl::PublisherOptions options;
  options.max_delta_gap = 0;
  auto publisher =
      engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0), options);

  repl::Replica replica = repl::Replica::connect(publisher->endpoint());
  replica.start();
  for (int i = 0; i < 3; ++i) {
    (void)engine->retitle_node("guitar", "r" + std::to_string(i));
  }
  ASSERT_TRUE(replica.wait_for_epoch(engine->snapshots().epoch(),
                                     std::chrono::seconds(30)))
      << replica.error();
  // The initial subscribe-FULL may already cover every epoch above if
  // the sender thread starts late. Mutate once more AFTER convergence:
  // now the sender definitely holds a last-sent snapshot, so this
  // advance must go through the gap check and force a resync FULL.
  (void)engine->retitle_node("guitar", "post-sync");
  ASSERT_TRUE(replica.wait_for_epoch(engine->snapshots().epoch(),
                                     std::chrono::seconds(30)))
      << replica.error();
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(
      *engine->snapshots().current(), *replica.store().current()));
  EXPECT_EQ(replica.stats().deltas_applied, 0u);
  EXPECT_GE(publisher->stats().resync_fulls, 1u);
}

TEST(ReplFleet, UnixSocketFeedsReplica) {
  const std::string path =
      ::testing::TempDir() + "navsep_repl_test.sock";
  auto engine = make_engine();
  auto publisher =
      engine->open_publisher(repl::Endpoint::unix_socket(path));

  repl::Replica replica =
      repl::Replica::connect(repl::Endpoint::unix_socket(path));
  replica.start();
  rotate_family(*engine, "ByMovement");
  ASSERT_TRUE(replica.wait_for_epoch(engine->snapshots().epoch(),
                                     std::chrono::seconds(30)))
      << replica.error();
  ASSERT_NO_FATAL_FAILURE(expect_snapshots_identical(
      *engine->snapshots().current(), *replica.store().current()));
}

TEST(ReplFleet, TwoReplicasStreamIndependently) {
  auto engine = make_engine();
  auto publisher =
      engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));

  repl::Replica a = repl::Replica::connect(publisher->endpoint());
  a.start();
  rotate_family(*engine, "ByAuthor");
  repl::Replica b = repl::Replica::connect(publisher->endpoint());
  b.start();
  (void)engine->retitle_node("guernica", "Guernica again");

  const std::uint64_t target = engine->snapshots().epoch();
  ASSERT_TRUE(a.wait_for_epoch(target, std::chrono::seconds(30)))
      << a.error();
  ASSERT_TRUE(b.wait_for_epoch(target, std::chrono::seconds(30)))
      << b.error();
  SnapPtr origin_snap = engine->snapshots().current();
  ASSERT_NO_FATAL_FAILURE(
      expect_snapshots_identical(*origin_snap, *a.store().current()));
  ASSERT_NO_FATAL_FAILURE(
      expect_snapshots_identical(*origin_snap, *b.store().current()));
  EXPECT_EQ(publisher->stats().subscribers_accepted, 2u);
}

}  // namespace
