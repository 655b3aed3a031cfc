// Wire robustness under adversarial bytes.
//
// The replication contract is all-or-nothing: a replica fed garbage must
// fail loudly with repl::WireError and keep serving its previous
// snapshot — never crash, never allocate unboundedly off a corrupted
// count, never publish a torn snapshot. This suite drives that contract
// with randomized single-byte corruptions and truncations of real FULL
// and DELTA frames — both kinds carrying route tables (inline and
// carry-forward) — at three layers:
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
// CI runs this file under AddressSanitizer, so "never crash" is checked
// at the memory level, not just the exception level.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "hypermedia/access.hpp"
#include "nav/pipeline.hpp"
#include "nav/route.hpp"
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

/// Fixed corpus of real frames: one FULL and two DELTAs off the same
/// engine, all carrying route tables — the FULL and the first DELTA
/// inline (the route edit changed the table), the second DELTA as a
/// carry-forward flag (a retitle leaves routes untouched).
struct WireCorpus {
  std::string full_payload;
  std::string delta_inline_payload;  // route table shipped inline
  std::string delta_carry_payload;   // route table carried forward
  SnapPtr prev_for_inline;
  SnapPtr prev_for_carry;
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
  corpus.delta_carry_payload = repl::encode_delta(
      *corpus.prev_for_carry, *engine->snapshots().current());
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
  check(corpus().delta_inline_payload, [](std::string_view bytes) {
    return repl::apply_delta(bytes, *corpus().prev_for_inline);
  });
  check(corpus().delta_carry_payload, [](std::string_view bytes) {
    return repl::apply_delta(bytes, *corpus().prev_for_carry);
  });
}

// --- layer 3: corruption behind a valid checksum ------------------------------

TEST(WireFuzz, CorruptedPayloadsNeverCrashAndNeverTearPreviousSnapshot) {
  Rng rng(0xF0220004u);
  const std::map<std::string, std::string> inline_prev_before =
      artifact_bytes(*corpus().prev_for_inline);
  const std::map<std::string, std::string> carry_prev_before =
      artifact_bytes(*corpus().prev_for_carry);

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
  fuzz(corpus().delta_inline_payload, [](std::string_view bytes) {
    return repl::apply_delta(bytes, *corpus().prev_for_inline);
  });
  fuzz(corpus().delta_carry_payload, [](std::string_view bytes) {
    return repl::apply_delta(bytes, *corpus().prev_for_carry);
  });

  // No partial application: the base snapshots every delta was applied
  // against still hold exactly their original bytes.
  EXPECT_EQ(artifact_bytes(*corpus().prev_for_inline), inline_prev_before);
  EXPECT_EQ(artifact_bytes(*corpus().prev_for_carry), carry_prev_before);
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
  // file and traversal tables, no overlay inputs — positioned right
  // before the two pre-allocating decoders (profile table, route
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
  prefix.push_back('\0');    // no overlay inputs

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

}  // namespace
