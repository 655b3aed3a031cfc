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
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
