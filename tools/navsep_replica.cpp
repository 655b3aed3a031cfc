// navsep_replica — the multi-process face of snapshot replication.
//
// Three modes over one endpoint spec (unix:/path or tcp:HOST:PORT):
//
//   navsep_replica origin <endpoint> [--epochs N] [--interval-ms M]
//     Build the paper museum engine with ByAuthor/ByMovement contexts
//     and three serving profiles, publish its snapshot stream at
//     <endpoint>, then run N mutation epochs (retitles, arc edits,
//     context reorders, structure arcs reordered across pages) M ms
//     apart before draining and exiting.
//
//   navsep_replica replica <endpoint> [--until-epoch E] [--timeout-ms T]
//                  [--page PATH] [--profile NAME] [--obs PATH]
//     Connect to an origin, apply its frame stream into a local
//     SnapshotStore until epoch E (or EOF), optionally serve one page
//     (base or profile-scoped) through a ConcurrentServer over the
//     replicated store, and report what was applied. With --obs, dump
//     the replica's obs::Registry snapshot (repl.rep.* gauges plus the
//     epoch-correlated repl.apply spans) as JSON to PATH ("-" for
//     stdout).
//
//   navsep_replica selftest [<endpoint>] [--obs PATH]
//     Origin and replica in one process over a real socket (default:
//     ephemeral loopback TCP): mutate, stream, then verify the replica's
//     snapshot is byte-identical to the origin's — every artifact and
//     every profile-scoped page — and holds the origin's arc state: the
//     same arc chunks in order, every field and ordinal included, and
//     the same traversal arcs; and that every chunk was shipped in some
//     DELTA. Exit status is the verdict.
//
// Run two terminals for the real thing:
//   build/tools/navsep_replica origin tcp:127.0.0.1:4710 --epochs 50 &
//   build/tools/navsep_replica replica tcp:127.0.0.1:4710
//       --until-epoch 20 --page guitar.html --profile tour
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "obs/registry.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "serve/concurrent_server.hpp"

namespace {

namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace repl = navsep::repl;
namespace serve = navsep::serve;

int usage() {
  std::fprintf(
      stderr,
      "usage: navsep_replica origin <endpoint> [--epochs N] [--interval-ms M]\n"
      "       navsep_replica replica <endpoint> [--until-epoch E]\n"
      "                      [--timeout-ms T] [--page PATH] [--profile NAME]\n"
      "                      [--obs PATH]\n"
      "       navsep_replica selftest [<endpoint>] [--obs PATH]\n"
      "  <endpoint>: unix:/path/to.sock | tcp:HOST:PORT\n");
  return 2;
}

/// Dump a registry snapshot as JSON to `path` ("-" = stdout). Returns
/// false (with a message) when the file cannot be written.
bool dump_registry(const obs::Registry& registry, const char* path) {
  const std::string json = registry.snapshot().to_json();
  if (std::strcmp(path, "-") == 0) {
    std::fputs(json.c_str(), stdout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  out << json;
  std::printf("wrote %s\n", path);
  return true;
}

long long arg_value(int argc, char** argv, const char* name,
                    long long fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

const char* arg_string(int argc, char** argv, const char* name,
                       const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// The shared origin: the paper museum with both context families and a
/// small profile table — enough surface for deltas of every kind.
std::unique_ptr<nav::Engine> make_origin_engine() {
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

/// One scripted mutation per call, cycling through the kinds a live
/// origin would mix: retitles (page-local), arc edits (structure-wide),
/// context reorders (single-family — the delta sweet spot), and the
/// structure's arcs reordered across pages but not within any (no page
/// changes, only the linkbase's arc order).
void mutate(nav::Engine& engine, int step) {
  switch (step % 4) {
    case 0: {
      const auto& members = engine.structure().members();
      const auto& id = members[static_cast<std::size_t>(step) %
                               members.size()].node_id;
      (void)engine.retitle_node(id, "epoch-title-" + std::to_string(step));
      break;
    }
    case 1: {
      std::vector<hm::AccessArc> arcs = engine.authored_arcs();
      if (arcs.empty()) break;
      hm::AccessArc edited = arcs[static_cast<std::size_t>(step) %
                                  arcs.size()];
      edited.title = "epoch-arc-" + std::to_string(step);
      (void)engine.replace_arc(
          static_cast<std::size_t>(step) % arcs.size(), std::move(edited));
      break;
    }
    case 2: {
      // The arcs leaving the first arc's page move, in order, to the end.
      const hm::AccessStructure& structure = engine.structure();
      std::vector<hm::AccessArc> arcs = structure.arcs();
      if (arcs.empty()) break;
      const std::string first = arcs.front().from;
      std::stable_partition(
          arcs.begin(), arcs.end(),
          [&](const hm::AccessArc& arc) { return arc.from != first; });
      (void)engine.set_access_structure(
          std::make_unique<hm::MaterializedStructure>(
              structure.name(), structure.kind(), structure.members(),
              std::move(arcs), structure.entry()));
      break;
    }
    default: {
      (void)engine.edit_context_family(
          (step / 4) % 2 == 0 ? "ByAuthor" : "ByMovement",
          [](hm::ContextFamily& family) {
            std::vector<hm::NavigationalContext> contexts =
                family.contexts();
            if (contexts.empty()) return;
            auto& context = contexts.front();
            std::vector<std::string> ids = context.node_ids();
            if (ids.size() < 2) return;
            std::rotate(ids.begin(), ids.begin() + 1, ids.end());
            context = hm::NavigationalContext(context.family(),
                                              context.name(),
                                              std::move(ids));
            family.replace_contexts(std::move(contexts));
          });
      break;
    }
  }
}

int run_origin(int argc, char** argv) {
  const repl::Endpoint endpoint = repl::Endpoint::parse(argv[2]);
  const long long epochs = arg_value(argc, argv, "--epochs", 30);
  const long long interval_ms = arg_value(argc, argv, "--interval-ms", 20);

  auto engine = make_origin_engine();
  auto publisher = engine->open_publisher(endpoint);
  std::printf("origin: publishing at %s (epoch %llu)\n",
              publisher->endpoint().to_string().c_str(),
              static_cast<unsigned long long>(
                  engine->snapshots().epoch()));

  for (long long step = 0; step < epochs; ++step) {
    mutate(*engine, static_cast<int>(step));
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  // Give tails of the stream a moment to drain before tearing down.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const repl::Publisher::Stats s = publisher->stats();
  std::printf(
      "origin: done at epoch %llu — %zu subscriber(s), %zu full (%llu B), "
      "%zu delta (%llu B), %zu forced resync(s)\n",
      static_cast<unsigned long long>(engine->snapshots().epoch()),
      s.subscribers_accepted, s.full_frames,
      static_cast<unsigned long long>(s.full_bytes), s.delta_frames,
      static_cast<unsigned long long>(s.delta_bytes), s.resync_fulls);
  return 0;
}

int run_replica(int argc, char** argv) {
  const repl::Endpoint endpoint = repl::Endpoint::parse(argv[2]);
  const long long until_epoch = arg_value(argc, argv, "--until-epoch", 0);
  const long long timeout_ms = arg_value(argc, argv, "--timeout-ms", 10000);
  const char* page = arg_string(argc, argv, "--page", nullptr);
  const char* profile = arg_string(argc, argv, "--profile", nullptr);
  const char* obs_path = arg_string(argc, argv, "--obs", nullptr);

  repl::Replica replica = repl::Replica::connect(endpoint);
  auto registry = std::make_shared<obs::Registry>();
  if (obs_path != nullptr) replica.attach_telemetry(registry);
  replica.start();
  if (until_epoch > 0) {
    if (!replica.wait_for_epoch(static_cast<std::uint64_t>(until_epoch),
                                std::chrono::milliseconds(timeout_ms))) {
      std::fprintf(stderr, "replica: timed out waiting for epoch %lld%s%s\n",
                   until_epoch, replica.error().empty() ? "" : " — ",
                   replica.error().c_str());
      return 1;
    }
  } else {
    // No target epoch: follow the stream until the origin closes it.
    while (replica.error().empty() &&
           !replica.wait_for_epoch(replica.stats().epoch + 1,
                                   std::chrono::milliseconds(250))) {
      // keep polling; wait_for_epoch false = quarter-second of silence
      if (replica.stats().epoch == 0) continue;
      break;  // stream idle after having synced at least once
    }
  }

  const repl::ReplicaStats s = replica.stats();
  std::printf(
      "replica: epoch %llu — %zu frame(s): %zu full, %zu delta, %llu B\n",
      static_cast<unsigned long long>(s.epoch), s.frames_applied,
      s.fulls_applied, s.deltas_applied,
      static_cast<unsigned long long>(s.bytes_received));
  if (!replica.error().empty()) {
    std::fprintf(stderr, "replica: stream error: %s\n",
                 replica.error().c_str());
    return 1;
  }

  if (page != nullptr) {
    serve::ConcurrentServer server(replica.store(), 4);
    const navsep::site::Response r =
        profile != nullptr ? server.get(page, profile) : server.get(page);
    if (!r.ok()) {
      std::fprintf(stderr, "replica: GET %s -> %d\n", page, r.status);
      return 1;
    }
    std::printf("%s\n", r.body->c_str());
  }
  if (obs_path != nullptr && !dump_registry(*registry, obs_path)) return 1;
  return 0;
}

/// What of the arc state differs between two snapshots, or null: the
/// chunks (in order, every arc field with the ordinal, and every slice
/// and woven hash), then the traversal arcs.
const char* arc_state_divergence(const serve::SiteSnapshot& origin,
                                 const serve::SiteSnapshot& replica) {
  const auto same_chunk = [](const auto& a, const auto& b) {
    return a->source == b->source && a->arcs == b->arcs &&
           a->slice_hashes == b->slice_hashes &&
           a->woven_hashes == b->woven_hashes;
  };
  if (!std::equal(origin.overlay_arcs().begin(), origin.overlay_arcs().end(),
                  replica.overlay_arcs().begin(), replica.overlay_arcs().end(),
                  same_chunk)) {
    return "overlay arc chunks";
  }
  if (origin.traversal_arcs() != replica.traversal_arcs()) {
    return "traversal arcs";
  }
  return nullptr;
}

int run_selftest(int argc, char** argv) {
  const repl::Endpoint endpoint =
      argc > 2 && argv[2][0] != '-' ? repl::Endpoint::parse(argv[2])
                                    : repl::Endpoint::tcp("127.0.0.1", 0);
  const char* obs_path = arg_string(argc, argv, "--obs", nullptr);

  auto engine = make_origin_engine();
  // One registry over both ends of the wire: the publisher's repl.pub.*
  // gauges and the replica's repl.rep.* gauges land in one snapshot, so
  // an --obs dump shows the frame stream from both sides.
  auto registry = std::make_shared<obs::Registry>();
  repl::PublisherOptions popts;
  popts.telemetry = registry;
  auto publisher = engine->open_publisher(endpoint, popts);
  repl::Replica replica = repl::Replica::connect(publisher->endpoint());
  replica.attach_telemetry(registry);
  replica.start();

  // The replica catches up before each next mutation, so every epoch
  // ships as a DELTA, and its arc state must be the origin's after each.
  // A chunk the replica shares with its previous epoch was carried; any
  // other was shipped, and the mutate cycle must ship every chunk.
  const auto caught_up = [&] {
    const std::uint64_t target = engine->snapshots().epoch();
    if (replica.wait_for_epoch(target, std::chrono::seconds(30))) return true;
    std::fprintf(stderr, "selftest: replica never reached epoch %llu (%s)\n",
                 static_cast<unsigned long long>(target),
                 replica.error().c_str());
    return false;
  };
  if (!caught_up()) return 1;
  auto before = replica.store().current();
  std::set<std::string> shipped;
  for (int step = 0; step < 24; ++step) {
    mutate(*engine, step);
    if (!caught_up()) return 1;
    auto after = replica.store().current();
    if (const char* diverged =
            arc_state_divergence(*engine->snapshots().current(), *after)) {
      std::fprintf(stderr, "selftest: %s diverged after step %d\n", diverged,
                   step);
      return 1;
    }
    for (const auto& chunk : after->overlay_arcs()) {
      if (navsep::core::find_chunk(before->overlay_arcs(), chunk->source) !=
          chunk) {
        shipped.insert(chunk->source);
      }
    }
    before = std::move(after);
  }
  for (const auto& chunk : before->overlay_arcs()) {
    if (shipped.count(chunk->source) == 0) {
      std::fprintf(stderr, "selftest: no DELTA shipped %s\n",
                   chunk->source.c_str());
      return 1;
    }
  }

  // Byte identity: every artifact, then every profile-scoped page.
  auto origin_snap = engine->snapshots().current();
  auto replica_snap = replica.store().current();
  std::size_t checked = 0;
  // Compare artifacts by content (the maps hold shared_ptr handles).
  bool files_diverged =
      replica_snap->files().size() != origin_snap->files().size();
  if (!files_diverged) {
    auto it = replica_snap->files().begin();
    for (const auto& [path, bytes] : origin_snap->files()) {
      if (it->first != path || *it->second != *bytes) {
        files_diverged = true;
        break;
      }
      ++it;
    }
  }
  if (files_diverged) {
    std::fprintf(stderr, "selftest: artifact bytes diverged\n");
    return 1;
  }
  checked += origin_snap->files().size();
  for (const nav::Profile& profile : origin_snap->profiles()) {
    for (const auto& [path, bytes] : origin_snap->files()) {
      if (path.size() < 5 || path.substr(path.size() - 5) != ".html") {
        continue;
      }
      const auto mine = origin_snap->respond_as(profile.name, path);
      const auto theirs = replica_snap->respond_as(profile.name, path);
      if (mine.status != theirs.status ||
          (mine.ok() && *mine.body != *theirs.body)) {
        std::fprintf(stderr, "selftest: %s as %s diverged\n", path.c_str(),
                     profile.name.c_str());
        return 1;
      }
      ++checked;
    }
  }

  const repl::Publisher::Stats ps = publisher->stats();
  const repl::ReplicaStats rs = replica.stats();
  std::printf(
      "selftest: OK — epoch %llu replicated over %s; %zu byte-identical "
      "responses; %zu full + %zu delta frame(s), %llu B on the wire\n",
      static_cast<unsigned long long>(rs.epoch),
      publisher->endpoint().to_string().c_str(), checked, ps.full_frames,
      ps.delta_frames,
      static_cast<unsigned long long>(ps.full_bytes + ps.delta_bytes));
  if (obs_path != nullptr && !dump_registry(*registry, obs_path)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "origin") == 0 && argc >= 3) {
      return run_origin(argc, argv);
    }
    if (std::strcmp(argv[1], "replica") == 0 && argc >= 3) {
      return run_replica(argc, argv);
    }
    if (std::strcmp(argv[1], "selftest") == 0) {
      return run_selftest(argc, argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "navsep_replica: %s\n", e.what());
    return 1;
  }
  return usage();
}
