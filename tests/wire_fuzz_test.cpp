// Wire robustness under adversarial bytes.
//
// The replication contract is all-or-nothing: a replica fed garbage must
// fail loudly with repl::WireError and keep serving its previous
// snapshot — never crash, never allocate unboundedly off a corrupted
// count, never publish a torn snapshot. This suite drives that contract
// with randomized single-byte corruptions and truncations of real FULL
// and DELTA frames — DELTAs carrying route tables (inline and
// carry-forward), the v4 edit scripts of all three record kinds
// (artifact lines, traversal-bucket arcs, overlay-segment arcs), and a
// kind swap whose rewritten structure segment falls back to a whole
// record — at three layers:
//
//   1. framed bytes: the checksum catches every flipped byte, every
//      truncation — parse_frame always throws WireError;
//   2. raw payloads: the bounds-checked decoders reject every
//      truncation — decode_full / apply_delta always throw WireError;
//   3. payloads re-framed behind a VALID checksum: the decoder either
//      throws WireError or returns a complete, pokeable snapshot — no
//      other exception type, no partial application into the previous
//      snapshot. (This layer is beyond what a real socket can deliver;
//      it exists to exercise the decoders' bounds checks directly.)
//
// Hand-built scripts then pin each check apply_delta makes on a script:
// a copy run past its base's end, runs out of order or overlapping, an
// item count the payload left cannot hold (rejected before any
// allocation), a rebuilt artifact that misses its checksum because the
// base differs, and a script for a record the base lacks. Each throws
// WireError and leaves the base's bytes as they were.
//
// CI runs this file under AddressSanitizer, so "never crash" is checked
// at the memory level, not just the exception level.
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hypermedia/access.hpp"
#include "nav/pipeline.hpp"
#include "nav/route.hpp"
#include "oracle.hpp"
#include "repl/wire.hpp"
#include "serve/snapshot.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace nav = navsep::nav;
namespace repl = navsep::repl;
namespace serve = navsep::serve;
namespace site = navsep::site;

using SnapPtr = std::shared_ptr<const serve::SiteSnapshot>;

/// Deterministic xorshift64* — same generator as the stress suite, so
/// every "random" corruption is reproducible from the seed alone.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  std::uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Fixed corpus of real frames: one FULL and four DELTAs off the same
/// engine, all carrying route tables — the FULL and the first DELTA
/// inline (the route edit changed the table), the others as a
/// carry-forward flag. The retitle and the arc edit ship edit scripts of
/// all three record kinds; the kind swap replaces every structure arc,
/// so that overlay segment ships whole (CorpusCarriesEveryRecordForm
/// pins both).
struct WireCorpus {
  std::string full_payload;
  std::string delta_inline_payload;  // route table shipped inline
  std::string delta_carry_payload;   // route table carried forward
  std::string delta_arc_payload;     // one authored arc retitled
  std::string delta_swap_payload;    // IGT → GuidedTour kind swap
  SnapPtr prev_for_inline;
  SnapPtr prev_for_carry;
  SnapPtr prev_for_arc;
  SnapPtr prev_for_swap;
  SnapPtr after_swap;

  /// Every DELTA with the snapshot it applies to.
  [[nodiscard]] std::vector<std::pair<const std::string*, SnapPtr>> deltas()
      const {
    return {{&delta_inline_payload, prev_for_inline},
            {&delta_carry_payload, prev_for_carry},
            {&delta_arc_payload, prev_for_arc},
            {&delta_swap_payload, prev_for_swap}};
  }
};

WireCorpus make_corpus() {
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .access(AccessStructureKind::IndexedGuidedTour, "picasso")
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();
  (void)engine->register_route(
      {"authors", "@ByAuthor / next*", nav::RouteCompile::Aot});
  (void)engine->register_route(
      {"spine", "index-entry / next*", nav::RouteCompile::Lazy});
  engine->register_profile({"kiosk", {}});
  engine->register_profile({"routed", {"authors", "spine"}});

  WireCorpus corpus;
  corpus.prev_for_inline = engine->snapshots().current();
  corpus.full_payload = repl::encode_full(*corpus.prev_for_inline);

  (void)engine->edit_route("spine", "index-entry / (next | prev)*");
  corpus.prev_for_carry = engine->snapshots().current();
  corpus.delta_inline_payload =
      repl::encode_delta(*corpus.prev_for_inline, *corpus.prev_for_carry);

  const std::string first_member =
      engine->structure().members().front().node_id;
  (void)engine->retitle_node(first_member, "fuzz-bait");
  corpus.prev_for_arc = engine->snapshots().current();
  corpus.delta_carry_payload =
      repl::encode_delta(*corpus.prev_for_carry, *corpus.prev_for_arc);

  const std::vector<navsep::hypermedia::AccessArc> arcs =
      engine->authored_arcs();
  navsep::hypermedia::AccessArc arc = arcs[arcs.size() / 2];
  arc.title = "fuzz-arc";
  (void)engine->replace_arc(arcs.size() / 2, arc);
  corpus.prev_for_swap = engine->snapshots().current();
  corpus.delta_arc_payload =
      repl::encode_delta(*corpus.prev_for_arc, *corpus.prev_for_swap);

  (void)engine->set_access_structure(AccessStructureKind::GuidedTour);
  corpus.after_swap = engine->snapshots().current();
  corpus.delta_swap_payload =
      repl::encode_delta(*corpus.prev_for_swap, *corpus.after_swap);
  return corpus;
}

const WireCorpus& corpus() {
  static const WireCorpus c = make_corpus();
  return c;
}

/// Touch every surface of a decoded snapshot that does not require a
/// semantically valid route table: if the decoder accepted a corrupted
/// payload (content corruption can be wire-well-formed), the result
/// must still be a complete snapshot, not a torn one. Under ASan this
/// walk is the memory-safety probe.
void poke(const serve::SiteSnapshot& snapshot) {
  (void)snapshot.epoch();
  std::size_t sink = snapshot.base().size();
  for (const auto& [path, body] : snapshot.files()) {
    sink += path.size() + body->size();
    site::Response response = snapshot.respond(path);
    if (response.ok()) sink += response.body->size();
  }
  for (const nav::Profile& profile : snapshot.profiles()) {
    sink += profile.name.size();
  }
  if (snapshot.route_table() != nullptr) {
    for (const auto& entry : snapshot.route_table()->entries) {
      sink += entry.program.name.size() + entry.program.expression.size();
    }
  }
  (void)sink;
}

/// A snapshot's logical content, to rebuild it with a record left out.
serve::SnapshotState state_of(const serve::SiteSnapshot& snapshot) {
  serve::SnapshotState state;
  state.base = snapshot.base();
  state.epoch = snapshot.epoch();
  state.files = snapshot.files();
  state.arcs_by_from = snapshot.traversal_arcs();
  state.overlays.arcs = snapshot.overlay_arcs();
  state.overlays.structure_source = snapshot.structure_source();
  state.overlays.families = snapshot.overlay_families();
  state.overlays.profiles = snapshot.profiles();
  state.overlays.routes = snapshot.route_table();
  return state;
}

/// Whether encode_delta(prev, next) ships a record as a script: with the
/// record dropped from `prev` it must ship whole, and the DELTA grows.
bool ships_scripted(const serve::SiteSnapshot& prev,
                    const serve::SiteSnapshot& next,
                    const std::function<void(serve::SnapshotState&)>& drop) {
  serve::SnapshotState without = state_of(prev);
  drop(without);
  return repl::encode_delta(prev, next).size() <
         repl::encode_delta(serve::SiteSnapshot(std::move(without)), next)
             .size();
}

/// A deep byte-copy of a snapshot's artifact map — captured before a
/// fuzz run, compared after, to pin "a failed apply leaves the previous
/// snapshot untouched".
std::map<std::string, std::string> artifact_bytes(
    const serve::SiteSnapshot& snapshot) {
  std::map<std::string, std::string> out;
  for (const auto& [path, body] : snapshot.files()) out.emplace(path, *body);
  return out;
}

// --- layer 1: framed bytes ----------------------------------------------------

TEST(WireFuzz, TruncatedFramesAlwaysThrowWireError) {
  const std::pair<repl::FrameType, const std::string*> inputs[] = {
      {repl::FrameType::Full, &corpus().full_payload},
      {repl::FrameType::Delta, &corpus().delta_inline_payload},
      {repl::FrameType::Delta, &corpus().delta_carry_payload},
      {repl::FrameType::Delta, &corpus().delta_arc_payload},
      {repl::FrameType::Delta, &corpus().delta_swap_payload},
  };
  Rng rng(0xF0220001u);
  for (const auto& [type, payload] : inputs) {
    const std::string frame = repl::encode_frame(type, *payload);
    ASSERT_GT(frame.size(), repl::kFrameHeaderSize);
    // Every sub-header prefix, then a random sample of longer ones —
    // exhaustive truncation would be O(frame bytes) decode passes.
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n < repl::kFrameHeaderSize; ++n) {
      lengths.push_back(n);
    }
    for (int i = 0; i < 200; ++i) {
      lengths.push_back(repl::kFrameHeaderSize +
                        rng.below(frame.size() - repl::kFrameHeaderSize));
    }
    for (const std::size_t n : lengths) {
      EXPECT_THROW((void)repl::parse_frame(frame.substr(0, n)),
                   repl::WireError)
          << "truncated to " << n << " of " << frame.size();
    }
    // …and a frame with bytes APPENDED is not "exactly one frame".
    EXPECT_THROW((void)repl::parse_frame(frame + "x"), repl::WireError);
  }
}

TEST(WireFuzz, SingleByteCorruptionsOfFramesAlwaysThrowWireError) {
  const std::pair<repl::FrameType, const std::string*> inputs[] = {
      {repl::FrameType::Full, &corpus().full_payload},
      {repl::FrameType::Delta, &corpus().delta_inline_payload},
      {repl::FrameType::Delta, &corpus().delta_carry_payload},
      {repl::FrameType::Delta, &corpus().delta_arc_payload},
      {repl::FrameType::Delta, &corpus().delta_swap_payload},
  };
  Rng rng(0xF0220002u);
  for (const auto& [type, payload] : inputs) {
    const std::string frame = repl::encode_frame(type, *payload);
    // Exhaust the header (every byte, two bit patterns)…
    for (std::size_t pos = 0; pos < repl::kFrameHeaderSize; ++pos) {
      for (const unsigned char bits : {0x01u, 0x80u}) {
        std::string corrupt = frame;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ bits);
        EXPECT_THROW((void)repl::parse_frame(corrupt), repl::WireError)
            << "header byte " << pos;
      }
    }
    // …and sample the payload: the checksum catches every flip.
    for (int i = 0; i < 400; ++i) {
      const std::size_t pos =
          repl::kFrameHeaderSize +
          rng.below(frame.size() - repl::kFrameHeaderSize);
      std::string corrupt = frame;
      corrupt[pos] =
          static_cast<char>(corrupt[pos] ^ (1u << rng.below(8)));
      EXPECT_THROW((void)repl::parse_frame(corrupt), repl::WireError)
          << "payload byte " << pos;
    }
  }
}

// --- layer 2: raw payload truncations -----------------------------------------

TEST(WireFuzz, TruncatedPayloadsAlwaysThrowWireError) {
  Rng rng(0xF0220003u);
  const auto check = [&rng](const std::string& payload, auto decode) {
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n < 16 && n < payload.size(); ++n) {
      lengths.push_back(n);
    }
    for (int i = 0; i < 200; ++i) lengths.push_back(rng.below(payload.size()));
    for (const std::size_t n : lengths) {
      EXPECT_THROW((void)decode(payload.substr(0, n)), repl::WireError)
          << "truncated to " << n << " of " << payload.size();
    }
    // Trailing garbage is rejected too — r.exhausted() is the last gate.
    EXPECT_THROW((void)decode(payload + "x"), repl::WireError);
  };
  check(corpus().full_payload,
        [](std::string_view bytes) { return repl::decode_full(bytes); });
  for (const auto& [payload, prev] : corpus().deltas()) {
    check(*payload, [base = prev](std::string_view bytes) {
      return repl::apply_delta(bytes, *base);
    });
  }
}

// --- layer 3: corruption behind a valid checksum ------------------------------

TEST(WireFuzz, CorruptedPayloadsNeverCrashAndNeverTearPreviousSnapshot) {
  Rng rng(0xF0220004u);
  std::vector<std::map<std::string, std::string>> prev_before;
  for (const auto& [payload, prev] : corpus().deltas()) {
    prev_before.push_back(artifact_bytes(*prev));
  }

  const auto fuzz = [&rng](const std::string& payload, auto decode) {
    std::size_t rejected = 0;
    for (int i = 0; i < 300; ++i) {
      std::string corrupt = payload;
      corrupt[rng.below(corrupt.size())] ^=
          static_cast<char>(1u << rng.below(8));
      // The ONLY acceptable outcomes: WireError, or a complete
      // snapshot. Any other exception escapes and fails the test; any
      // memory error is ASan's to catch inside poke().
      try {
        SnapPtr snapshot = decode(corrupt);
        ASSERT_NE(snapshot, nullptr);
        poke(*snapshot);
      } catch (const repl::WireError&) {
        ++rejected;
      }
    }
    // Sanity: the corpus is corruption-sensitive — a fuzzer that never
    // trips a single check is fuzzing the wrong bytes.
    EXPECT_GT(rejected, 0u);
  };
  fuzz(corpus().full_payload,
       [](std::string_view bytes) { return repl::decode_full(bytes); });
  for (const auto& [payload, prev] : corpus().deltas()) {
    fuzz(*payload, [base = prev](std::string_view bytes) {
      return repl::apply_delta(bytes, *base);
    });
  }

  // No partial application: the base snapshots every delta was applied
  // against still hold exactly their original bytes.
  for (std::size_t i = 0; i < corpus().deltas().size(); ++i) {
    EXPECT_EQ(artifact_bytes(*corpus().deltas()[i].second), prev_before[i]);
  }
}

// A corrupted count field must be rejected BEFORE the decoder sizes any
// container from it: a count claiming more records than the remaining
// payload could encode throws WireError without attempting the
// allocation. (A 256M-record route table "announced" by a 200-byte
// payload must not resize() gigabytes first.) This pins the guard
// directly, independent of whatever bytes the random fuzz happens to
// hit.
TEST(WireFuzz, OverstatedRecordCountsAreRejectedWithoutAllocation) {
  // Minimal FULL payload prefix, hand-assembled: epoch, base, empty
  // file and traversal tables, an empty overlay section — positioned
  // right before the two pre-allocating decoders (profile table, route
  // table).
  std::string prefix;
  const auto u32 = [](std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  for (int i = 0; i < 8; ++i) prefix.push_back('\0');  // epoch u64 = 0
  u32(prefix, 1);
  prefix.push_back('/');     // base = "/"
  u32(prefix, 0);            // no files
  u32(prefix, 0);            // no traversal buckets
  u32(prefix, 0);            // structure source = ""
  u32(prefix, 0);            // no families
  u32(prefix, 0);            // no arc segments

  // A profile table announcing ~256M records backed by zero bytes.
  std::string huge_profiles = prefix;
  u32(huge_profiles, (1u << 28) - 1);
  EXPECT_THROW((void)repl::decode_full(huge_profiles), repl::WireError);

  // An empty profile table, then a route table announcing ~256M
  // entries backed by zero bytes.
  std::string huge_routes = prefix;
  u32(huge_routes, 0);           // no profiles
  huge_routes.push_back('\x01');  // route table present
  u32(huge_routes, (1u << 28) - 1);
  EXPECT_THROW((void)repl::decode_full(huge_routes), repl::WireError);
}

// A DELTA whose removal list names an artifact its base does not hold
// is malformed like a carry-forward of a segment the base lacks: it
// throws WireError, and the base keeps its bytes. The payload is a real
// route removal with one byte of the removed path changed, re-framed
// behind a valid checksum.
TEST(WireFuzz, DeltaRemovingAPathTheBaseLacksThrows) {
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .access(AccessStructureKind::IndexedGuidedTour, "picasso")
                    .serve();
  (void)engine->register_route(
      {"walk", "index-entry / next*", nav::RouteCompile::Aot});
  const SnapPtr base = engine->snapshots().current();
  ASSERT_TRUE(base->contains("links-walk.xml"));
  (void)engine->remove_route("walk");
  std::string payload =
      repl::encode_delta(*base, *engine->snapshots().current());

  constexpr std::string_view kRemoved = "links-walk.xml";
  const std::size_t at = payload.find(kRemoved);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(at, payload.rfind(kRemoved));  // only in the removal list
  payload[at + kRemoved.rfind('k')] = 'j';  // "links-walj.xml"
  ASSERT_FALSE(base->contains("links-walj.xml"));

  const std::map<std::string, std::string> before = artifact_bytes(*base);
  const repl::Frame frame = repl::parse_frame(
      repl::encode_frame(repl::FrameType::Delta, payload));
  EXPECT_THROW((void)repl::apply_frame(frame, base), repl::WireError);
  EXPECT_EQ(artifact_bytes(*base), before);
}

}  // namespace

// --- v4 edit scripts ----------------------------------------------------------

namespace {

// The corpus must carry what the layers above are meant to sweep: edit
// scripts of all three record kinds, and a whole-record fallback.
// (ships_scripted is false for a record that ships whole either way.)
TEST(WireFuzz, CorpusCarriesEveryRecordForm) {
  const std::string links(site::kStructureLinkbasePath);
  const auto drop_file = [&links](serve::SnapshotState& s) {
    s.files.erase(links);
  };
  const auto drop_segment = [&links](serve::SnapshotState& s) {
    std::erase_if(s.overlays.arcs,
                  [&links](const auto& chunk) { return chunk->source == links; });
  };
  for (const auto& [prev, next] :
       {std::pair{corpus().prev_for_carry, corpus().prev_for_arc},
        std::pair{corpus().prev_for_arc, corpus().prev_for_swap}}) {
    EXPECT_TRUE(ships_scripted(*prev, *next, drop_file));
    EXPECT_TRUE(ships_scripted(*prev, *next, drop_segment));
    // Some changed traversal bucket ships as a script.
    bool bucket_scripted = false;
    for (const auto& [from, arcs] : next->traversal_arcs()) {
      auto it = prev->traversal_arcs().find(from);
      if (it == prev->traversal_arcs().end() || it->second == arcs) continue;
      bucket_scripted =
          bucket_scripted ||
          ships_scripted(*prev, *next, [from = from](serve::SnapshotState& s) {
            s.arcs_by_from.erase(from);
          });
    }
    EXPECT_TRUE(bucket_scripted);
  }
  // The kind swap keeps no structure arc: that segment ships whole.
  EXPECT_FALSE(ships_scripted(*corpus().prev_for_swap, *corpus().after_swap,
                              drop_segment));
}

/// Little-endian payload assembly for the hand-built DELTAs below.
class Payload {
 public:
  Payload& u8(std::uint8_t v) {
    bytes_.push_back(static_cast<char>(v));
    return *this;
  }
  Payload& u32(std::uint32_t v) { return uint(v, 4); }
  Payload& u64(std::uint64_t v) { return uint(v, 8); }
  Payload& str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s);
    return *this;
  }
  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  Payload& uint(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
    return *this;
  }
  std::string bytes_;
};

constexpr std::string_view kBase = "http://example.org/";
constexpr std::string_view kBody = "alpha\nbeta\ngamma\n";

/// Epoch 1 holding one three-line page and nothing else.
SnapPtr small_base() {
  serve::SnapshotState state;
  state.base = std::string(kBase);
  state.epoch = 1;
  state.files.emplace("page.html", std::make_shared<const std::string>(kBody));
  return std::make_shared<serve::SiteSnapshot>(std::move(state));
}

/// A DELTA from epoch 1 whose one record scripts page.html with `script`
/// (the run count, then each run) and claims `checksum` for the result.
std::string page_script_delta(const std::string& script,
                              std::uint64_t checksum) {
  Payload p;
  p.u64(1).u64(2).str(kBase);
  p.u32(1).str("page.html").u8(2).u64(checksum).u8(1);
  std::string bytes = p.bytes() + script;
  Payload tail;
  tail.u32(0);                  // no removed files
  tail.u32(0).u32(0);           // no changed or removed buckets
  tail.str("links.xml").u32(0);  // structure source, no families
  tail.u32(0);                  // no segments
  tail.u32(0).u8(0);            // no profiles, route table carried
  return bytes + tail.bytes();
}

/// Run count, then (copy_at, copy_count, literal lines…) per run.
std::string runs(
    const std::vector<std::tuple<std::uint32_t, std::uint32_t,
                                 std::vector<std::string>>>& list) {
  Payload p;
  p.u32(static_cast<std::uint32_t>(list.size()));
  for (const auto& [at, count, literals] : list) {
    p.u32(at).u32(count).u32(static_cast<std::uint32_t>(literals.size()));
    for (const std::string& line : literals) p.str(line);
  }
  return p.bytes();
}

/// apply_delta must throw a WireError that names `check`, and leave the
/// base's bytes as they were.
void expect_rejected(const std::string& payload, const SnapPtr& base,
                     std::string_view check) {
  const std::map<std::string, std::string> before = artifact_bytes(*base);
  try {
    (void)repl::apply_delta(payload, *base);
    ADD_FAILURE() << "accepted; expected a WireError naming: " << check;
  } catch (const repl::WireError& e) {
    EXPECT_NE(std::string_view(e.what()).find(check), std::string_view::npos)
        << e.what();
  }
  EXPECT_EQ(artifact_bytes(*base), before);
}

TEST(WireFuzz, HandBuiltScriptsAreCheckedAgainstTheirBase) {
  const SnapPtr base = small_base();
  const std::string target = "alpha\nBETA\ngamma\n";
  const std::uint64_t sum = repl::wire_checksum(target);

  // The well-formed script applies: copy 1, insert BETA; skip 1, copy 1.
  const std::string good =
      page_script_delta(runs({{0, 1, {"BETA"}}, {2, 1, {}}}), sum);
  EXPECT_EQ(*repl::apply_delta(good, *base)->body("page.html"), target);

  // A copy run past the base's end (three lines: 2 + 2 > 3).
  expect_rejected(page_script_delta(runs({{0, 1, {"BETA"}}, {2, 2, {}}}), sum),
                  base, "past its base's end");
  // Runs out of order, and runs overlapping. Each claims the checksum of
  // the bytes it would build, so only the order check stands in its way.
  expect_rejected(
      page_script_delta(runs({{2, 1, {}}, {0, 1, {"BETA"}}}),
                        repl::wire_checksum("gamma\nalpha\nBETA\n")),
      base, "out of order or overlapping");
  expect_rejected(
      page_script_delta(runs({{0, 2, {"BETA"}}, {1, 1, {}}}),
                        repl::wire_checksum("alpha\nbeta\nBETA\nbeta\n")),
      base, "out of order or overlapping");
  // Item counts the payload left cannot hold: a literal count, then a
  // run count, each ~2^28 against a few dozen bytes. Both are rejected
  // by the count check, before anything is read or sized from them.
  expect_rejected(
      page_script_delta(Payload().u32(1).u32(0).u32(0).u32((1u << 28) - 1)
                            .bytes(),
                        sum),
      base, "exceeds remaining payload");
  expect_rejected(
      page_script_delta(Payload().u32((1u << 28) - 1).bytes(), sum), base,
      "exceeds remaining payload");
  // A well-formed script that claims another result's checksum.
  expect_rejected(
      page_script_delta(runs({{0, 1, {"BETA"}}, {2, 1, {}}}), sum + 1), base,
      "misses its checksum");
}

/// An epoch pair whose DELTA scripts one of each record kind: a page, a
/// traversal bucket and the structure's overlay segment, each long
/// enough that one changed item leaves most of it to copy.
std::pair<SnapPtr, SnapPtr> scripted_pair() {
  serve::SnapshotState a;
  a.base = std::string(kBase);
  a.epoch = 1;
  std::string body;
  for (int i = 0; i < 40; ++i) body += "<p>line " + std::to_string(i) + "</p>\n";
  a.files.emplace("page.html", std::make_shared<const std::string>(body));
  const std::string from = std::string(kBase) + "page.html";
  std::vector<navsep::core::NavArc> arcs;
  for (int i = 0; i < 20; ++i) {
    const std::string to = std::string(kBase) + "p" + std::to_string(i) + ".html";
    a.arcs_by_from[from].push_back(
        serve::SnapshotArc{from, to, "nav:next", "t" + std::to_string(i), true});
    navsep::core::NavArc arc;
    arc.from = from;
    arc.to = to;
    arc.role = "next";
    arc.title = "t" + std::to_string(i);
    arc.source = "links.xml";
    arc.ordinal = static_cast<std::size_t>(i);
    arcs.push_back(arc);
  }
  a.overlays.arcs = navsep::testing::chunks_of(arcs);

  serve::SnapshotState b = a;
  b.epoch = 2;
  b.files["page.html"] = std::make_shared<const std::string>(
      body.substr(0, body.size() / 2) + "<p>inserted</p>\n" +
      body.substr(body.size() / 2));
  b.arcs_by_from[from][7].title = "retitled";
  arcs[7].title = "retitled";
  b.overlays.arcs = navsep::testing::chunks_of(arcs);
  return {std::make_shared<serve::SiteSnapshot>(std::move(a)),
          std::make_shared<serve::SiteSnapshot>(std::move(b))};
}

TEST(WireFuzz, ScriptsAgainstAChangedOrMissingBaseThrow) {
  const auto [a, b] = scripted_pair();
  const std::string delta = repl::encode_delta(*a, *b);
  const SnapPtr applied = repl::apply_delta(delta, *a);
  EXPECT_EQ(*applied->body("page.html"), *b->body("page.html"));
  EXPECT_EQ(applied->traversal_arcs(), b->traversal_arcs());
  ASSERT_NO_FATAL_FAILURE(navsep::testing::expect_same_chunks(
      b->overlay_arcs(), applied->overlay_arcs()));
  EXPECT_EQ(applied->overlay_arcs().front()->arcs[7].title, "retitled");

  // The same epoch with one byte of the page changed: the script's copy
  // runs fit, but the rebuilt page misses the origin's checksum.
  serve::SnapshotState one_byte = state_of(*a);
  std::string page = *one_byte.files["page.html"];
  page[page.find("line 3")] = 'L';
  one_byte.files["page.html"] = std::make_shared<const std::string>(page);
  expect_rejected(delta,
                  std::make_shared<serve::SiteSnapshot>(std::move(one_byte)),
                  "misses its checksum");

  // A script for a page, a bucket or a segment the base does not hold.
  serve::SnapshotState no_page = state_of(*a);
  no_page.files.erase("page.html");
  no_page.files.emplace("other.html",
                        std::make_shared<const std::string>("other\n"));
  expect_rejected(delta,
                  std::make_shared<serve::SiteSnapshot>(std::move(no_page)),
                  "scripts artifact 'page.html' the previous snapshot does "
                  "not hold");
  serve::SnapshotState no_bucket = state_of(*a);
  no_bucket.arcs_by_from.clear();
  expect_rejected(delta,
                  std::make_shared<serve::SiteSnapshot>(std::move(no_bucket)),
                  "scripts traversal bucket");
  serve::SnapshotState no_segment = state_of(*a);
  no_segment.overlays.arcs.clear();
  expect_rejected(delta,
                  std::make_shared<serve::SiteSnapshot>(std::move(no_segment)),
                  "scripts segment 'links.xml'");
}

}  // namespace
