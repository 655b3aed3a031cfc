// navbench — the repository benchmark program.
//
// One process runs one workload against one origin → replica pair and
// prints one JSON result line (see metrics.hpp). The pair is the same in
// every workload:
//
//   * a deterministic synthetic museum (8 painters × 125 paintings,
//     4 movements; SyntheticSpec seed fixed, so every run serves the
//     same site), woven as an IndexedGuidedTour with the ByAuthor and
//     ByMovement context families;
//   * profiles kiosk (no families), tour (ByAuthor) and everything
//     (both);
//   * a repl::Publisher on loopback TCP and one in-process repl::Replica,
//     whose SnapshotStore a serve::ConcurrentServer reads — every GET of
//     the benchmark goes to the replica.
//
// Both workloads run 90 unrecorded warm-up edits, then for --seconds a
// cycle of three steps that never overlap: a block of closed-loop edits
// (the editor alone), an untimed pass that refills the caches, and a
// slice of two closed-loop readers over Zipf(1)-ranked (page, view) keys
// through small bounded caches. They differ in the mix (all inputs are
// generated from --seed before timing):
//
//   edit_solo    12 edits per block, 0.5 s read slices: mostly edits.
//   read_zipf    6 edits per block, 3 s read slices: mostly reads.
//
// Cycling spreads both paths over the whole run, and every latency is
// reported as a median over time windows (edit blocks, read windows), so
// a host slow spell that covers part of a run cannot move it.
//
// --trace 1 reports the per-layer metrics instead: it imports the
// program's epoch-stamped spans, records the benchmark's own spans around
// each layer call, runs replays of single layer calls between timed
// operations, and writes every span to --trace-out at exit.
//
//   navbench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out PATH] [--smoke] [--inject-fault]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/linkbase.hpp"
#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "metrics.hpp"
#include "nav/pipeline.hpp"
#include "obs/registry.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "repl/wire.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/snapshot.hpp"
#include "trace.hpp"
#include "uri/uri.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace {

namespace core = navsep::core;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace repl = navsep::repl;
namespace serve = navsep::serve;
using navbench::LatencyHistogram;
using navbench::Metric;
using navbench::quantile;
using navbench::SpanStore;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The same timeline as obs::monotonic_ns, so the benchmark's spans and
/// the program's spans line up.
std::uint64_t ns_of(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- configuration -------------------------------------------------------------

enum class Workload { EditSolo, ReadZipf };

struct Options {
  Workload workload = Workload::EditSolo;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;         ///< tiny site and phases (the smoke test)
  bool inject_fault = false;  ///< corrupt one expected body (gate test)
};

/// Sizes of the site, of the untimed phases and of the timed cycle.
struct Shape {
  std::size_t painters = 8;
  std::size_t paintings_per_painter = 125;
  std::size_t movements = 4;
  std::size_t setups = 5;         ///< setup_s is the median of these
  std::size_t warmup_edits = 90;  ///< edit cost climbs over the first ~90
  std::size_t exact_edits = 36;   ///< edit floor; prefix for exact counts
  double reader_lead_in_s = 1.0;  ///< readers run unrecorded first
  std::size_t block_edits = 12;   ///< edits per cycle
  double slice_s = 0.5;           ///< reads per cycle
  double window_s = 0.5;          ///< read statistics window
};

Shape shape_for(const Options& options) {
  Shape shape;
  if (options.workload == Workload::ReadZipf) {
    shape.block_edits = 6;
    shape.slice_s = 3.0;
  }
  if (options.smoke) {
    shape.painters = 4;
    shape.paintings_per_painter = 5;
    shape.movements = 2;
    shape.setups = 2;
    shape.warmup_edits = 3;
    shape.exact_edits = 6;
    shape.reader_lead_in_s = 0.1;
    shape.block_edits = 3;
    shape.slice_s /= 10;
    shape.window_s = 0.02;
  }
  return shape;
}

/// The replica's caches: 16 entries per shard × 16 shards per layer, far
/// below the ~4×10³ keys, so a steady share of requests miss.
constexpr std::size_t kShards = 16;
serve::CacheLimits bounded_limits() {
  serve::CacheLimits limits;
  limits.base_entries_per_shard = 16;
  limits.overlay_entries_per_shard = 16;
  return limits;
}

constexpr std::string_view kProbeProfile = "everything";
const std::vector<std::string> kViews = {"", "kiosk", "tour", "everything"};

// --- the origin → replica pair ------------------------------------------------

/// Engine, publisher, replica and the replica-side server. Members are
/// destroyed in reverse order: the server before the replica whose store
/// it reads, the publisher before the engine whose store it streams.
/// Held through a unique_ptr and never moved, so that order always holds.
struct Rig {
  std::shared_ptr<obs::Registry> registry;  // null unless tracing
  std::unique_ptr<nav::Engine> engine;
  std::unique_ptr<repl::Publisher> publisher;
  std::unique_ptr<repl::Replica> replica;
  std::unique_ptr<serve::ConcurrentServer> server;
};

/// Spin (yielding, never sleeping) until the replica has applied
/// `epoch`. False on timeout.
bool await_replica_epoch(const repl::Replica& replica, std::uint64_t epoch,
                         Clock::time_point deadline) {
  std::uint32_t spins = 0;
  while (replica.store().epoch() < epoch) {
    std::this_thread::yield();
    if ((++spins & 0x3ff) == 0 && Clock::now() > deadline) return false;
  }
  return true;
}

/// Build the site, register profiles, attach the publisher and replica,
/// and wait until the replica holds the first epoch. Returns the rig and
/// the seconds that took (set-up time).
std::pair<std::unique_ptr<Rig>, double> make_rig(
    const Shape& shape, std::shared_ptr<obs::Registry> registry) {
  auto owned = std::make_unique<Rig>();
  Rig& rig = *owned;
  rig.registry = std::move(registry);
  const auto t0 = Clock::now();
  rig.engine = nav::SitePipeline()
                   .conceptual(navsep::museum::SyntheticSpec{
                       .painters = shape.painters,
                       .paintings_per_painter = shape.paintings_per_painter,
                       .movements = shape.movements,
                       .seed = 42})
                   .access(hm::AccessStructureKind::IndexedGuidedTour)
                   .contexts({"ByAuthor", "ByMovement"})
                   .weave()
                   .serve();
  nav::EngineInternals& internals = rig.engine->internals();
  internals.register_profile({"kiosk", {}});
  internals.register_profile({"tour", {"ByAuthor"}});
  internals.register_profile({"everything", {"ByAuthor", "ByMovement"}});
  repl::PublisherOptions publisher_options;
  publisher_options.telemetry = rig.registry;
  rig.publisher = rig.engine->open_publisher(
      repl::Endpoint::tcp("127.0.0.1", 0), publisher_options);
  rig.replica = std::make_unique<repl::Replica>(
      repl::Connection::connect(rig.publisher->endpoint()));
  if (rig.registry != nullptr) rig.replica->attach_telemetry(rig.registry);
  rig.replica->start();
  if (!await_replica_epoch(*rig.replica, internals.snapshots().epoch(),
                           Clock::now() + std::chrono::seconds(60))) {
    throw std::runtime_error("replica never reached the first epoch: " +
                             rig.replica->error());
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  rig.server = std::make_unique<serve::ConcurrentServer>(
      rig.replica->store(), kShards, bounded_limits());
  if (rig.registry != nullptr) internals.attach_telemetry(rig.registry);
  return {std::move(owned), seconds};
}

// --- the edit script ----------------------------------------------------------

enum class EditKind { Arc, Retitle, Family };

const char* kind_name(EditKind kind) {
  switch (kind) {
    case EditKind::Arc: return "arc";
    case EditKind::Retitle: return "retitle";
    case EditKind::Family: return "family";
  }
  return "?";
}

struct EditStep {
  EditKind kind = EditKind::Arc;
  std::size_t arc_index = 0;      // Arc: index into authored_arcs()
  std::string node_id;            // Retitle
  std::string family;             // Family
  std::size_t context_index = 0;  // Family: the context rotated by one
  std::string title;              // Arc / Retitle: a label never used before
};

/// The seeded script: replace_arc, retitle_node and edit_context_family
/// in a fixed cycle, each aimed at a seeded target.
class EditScript {
 public:
  EditScript(std::uint64_t seed, const nav::Engine& engine)
      : seed_(seed), rng_(seed * 0x9e3779b97f4a7c15ull + 1) {
    arc_count_ = engine.structure().arcs().size();
    for (const hm::Member& member : engine.structure().members()) {
      members_.push_back(member.node_id);
    }
    for (const hm::ContextFamily& family : engine.context_families()) {
      families_.emplace_back(family.name(), family.contexts().size());
    }
  }

  EditStep next() {
    EditStep step;
    step.kind = static_cast<EditKind>(step_ % 3);
    char title[48];
    std::snprintf(title, sizeof(title), "edit-%llu-%06zu",
                  static_cast<unsigned long long>(seed_), step_);
    step.title = title;
    switch (step.kind) {
      case EditKind::Arc:
        step.arc_index = pick(arc_count_);
        break;
      case EditKind::Retitle:
        step.node_id = members_[pick(members_.size())];
        break;
      case EditKind::Family: {
        const auto& [name, contexts] = families_[pick(families_.size())];
        step.family = name;
        step.context_index = pick(contexts);
        break;
      }
    }
    ++step_;
    return step;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  std::uint64_t seed_;
  std::mt19937_64 rng_;
  std::size_t step_ = 0;
  std::size_t arc_count_ = 0;
  std::vector<std::string> members_;
  std::vector<std::pair<std::string, std::size_t>> families_;
};

/// Bytes `snapshot` serves for the probe (base page, or the page as the
/// `everything` profile sees it).
std::shared_ptr<const std::string> probe_bytes(
    const serve::SiteSnapshot& snapshot, const std::string& path,
    bool overlay) {
  return overlay ? snapshot.respond_as(kProbeProfile, path).body
                 : snapshot.respond(path).body;
}

/// What one edit cost, as the editor saw it.
struct EditSample {
  EditKind kind = EditKind::Arc;
  std::size_t block = 0;  ///< which edit block of the cycle
  double edit_ms = 0;     ///< the mutation call
  double visible_ms = 0;  ///< until the replica serves the new bytes
  nav::RebuildReport report;
  std::uint64_t epoch = 0;
  std::uint64_t delta_wire_bytes = 0;
  // Blocking-path layers (traced runs only).
  double run_ms = 0, plan_ms = 0, publish_ms = 0, poll_wait_ms = 0,
         encode_ms = 0, ship_ms = 0, apply_ms = 0, apply_tail_ms = 0,
         fresh_get_ms = 0;
};

/// Per-layer replay timings collected between timed operations.
struct Replays {
  std::vector<double> build_linkbase_ms, write_ms, parse_ms, load_ms,
      weave_ms, capture_ms, encode_ms, apply_ms, linkbase_kib, delta_kib;
};

/// The benchmark state shared by the phases of one run.
class Bench {
 public:
  Bench(Options options, Shape shape, Rig& rig)
      : options_(std::move(options)),
        shape_(shape),
        rig_(rig),
        script_(options_.seed, *rig.engine) {}

  // --- edits -------------------------------------------------------------

  /// Run `count` closed-loop edits; samples are kept (tagged with
  /// `block`) only when `measured`.
  void closed_loop_edits(std::size_t count, bool measured,
                         std::size_t block = 0) {
    for (std::size_t i = 0; i < count; ++i) edit(measured, block);
  }

  /// One edit: prepare untimed, then time the mutation call and the wait
  /// until the replica's server returns the origin's new bytes for a
  /// page the edit changed.
  void edit(bool measured, std::size_t block) {
    ++attempted_;
    const EditStep step = script_.next();
    nav::Engine& engine = *rig_.engine;
    nav::EngineInternals& internals = engine.internals();
    const auto fail = [&](const std::string& why) {
      ++failed_;
      std::cerr << "navbench: edit " << kind_name(step.kind) << " failed: "
                << why << "\n";
    };

    // Untimed preparation: the probe page, its pre-edit bytes and the
    // publisher's byte count.
    std::string probe_path;
    bool overlay = false;
    hm::AccessArc arc;
    if (step.kind == EditKind::Arc) {
      arc = internals.authored_arcs()[step.arc_index];
      arc.title = step.title;
      probe_path = core::default_href_for(arc.from);
    } else if (step.kind == EditKind::Retitle) {
      for (const hm::AccessArc& a : internals.authored_arcs()) {
        if (a.to == step.node_id) {
          probe_path = core::default_href_for(a.from);
          break;
        }
      }
    } else {
      overlay = true;
      for (const hm::ContextFamily& family : engine.context_families()) {
        if (family.name() == step.family) {
          probe_path = core::default_href_for(
              family.contexts()[step.context_index].node_ids().front());
        }
      }
    }
    const auto before = internals.snapshots().current();
    const auto before_bytes = probe_bytes(*before, probe_path, overlay);
    const repl::Publisher::Stats wire_before = rig_.publisher->stats();
    const std::string probe_uri = before->base() + probe_path;

    const auto t0 = Clock::now();
    nav::RebuildReport report;
    try {
      switch (step.kind) {
        case EditKind::Arc:
          report = internals.replace_arc(step.arc_index, arc);
          break;
        case EditKind::Retitle:
          report = internals.retitle_node(step.node_id, step.title);
          break;
        case EditKind::Family:
          report = internals.edit_context_family(
              step.family, [&](hm::ContextFamily& family) {
                std::vector<hm::NavigationalContext> contexts =
                    family.contexts();
                hm::NavigationalContext& ctx = contexts[step.context_index];
                std::vector<std::string> ids = ctx.node_ids();
                std::rotate(ids.begin(), ids.begin() + 1, ids.end());
                ctx = hm::NavigationalContext(ctx.family(), ctx.name(),
                                              std::move(ids));
                family.replace_contexts(std::move(contexts));
              });
          break;
      }
    } catch (const std::exception& e) {
      fail(e.what());
      return;
    }
    const auto t1 = Clock::now();

    const auto origin = internals.snapshots().current();
    const auto want = probe_bytes(*origin, probe_path, overlay);
    if (want == nullptr || before_bytes == nullptr || *want == *before_bytes) {
      fail("the probe page " + probe_path + " did not change");
      return;
    }
    const auto deadline = t1 + std::chrono::seconds(10);
    if (!await_replica_epoch(*rig_.replica, origin->epoch(), deadline)) {
      fail("replica never applied epoch " + std::to_string(origin->epoch()));
      return;
    }
    const auto seen = Clock::now();
    Clock::time_point t2;
    for (;;) {
      const navsep::site::Response response =
          overlay ? rig_.server->get(probe_uri, kProbeProfile)
                  : rig_.server->get(probe_uri);
      t2 = Clock::now();
      if (response.body != nullptr && *response.body == *want) break;
      if (rig_.replica->store().epoch() >= origin->epoch() || t2 > deadline) {
        fail("replica served other bytes for " + probe_path);
        return;
      }
    }

    if (!measured) return;
    EditSample sample;
    sample.kind = step.kind;
    sample.block = block;
    sample.edit_ms = ms_between(t0, t1);
    sample.visible_ms = ms_between(t0, t2);
    sample.report = report;
    sample.epoch = origin->epoch();
    const repl::Publisher::Stats wire_after = rig_.publisher->stats();
    sample.delta_wire_bytes = wire_after.delta_bytes - wire_before.delta_bytes;
    // The closed loop waits for every epoch, so each edit is exactly one
    // DELTA frame; a coalesced or resynced epoch would blur the bytes.
    if (wire_after.delta_frames != wire_before.delta_frames + 1 ||
        wire_after.full_frames != wire_before.full_frames) {
      fail("epoch " + std::to_string(sample.epoch) +
           " did not ship as exactly one DELTA frame");
      return;
    }
    if (options_.trace) {
      if (!import_spans(sample, t0, t1, seen, t2)) return;
      replay_edit_layers(before, origin, step, sample.epoch);
    }
    edits_.push_back(std::move(sample));
  }

  // --- reads -------------------------------------------------------------

  /// Generate the read keys and each reader's Zipf(1) schedule.
  void plan_reads() {
    const auto snapshot = rig_.engine->internals().snapshots().current();
    std::vector<std::string> pages;
    for (const auto& [path, body] : snapshot->files()) {
      // Member pages only: the one index page is ~100× larger than the
      // rest, and where the seed happened to rank it would move the
      // read figures.
      if (path.ends_with(".html") && !path.starts_with("index")) {
        pages.push_back(path);
      }
    }
    for (const std::string& page : pages) {
      for (const std::string& view : kViews) {
        keys_.push_back(ReadKey{snapshot->base() + page, page, view});
      }
    }
    // rank → key: one fixed permutation decides which keys are hot, the
    // same for every seed — which keys share a 16-entry shard moves the
    // hit ratios, and that must not vary from run to run. The seed draws
    // the request sequence.
    rank_to_key_.resize(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      rank_to_key_[i] = static_cast<std::uint32_t>(i);
    }
    std::mt19937_64 ranking(0x6e617662656e6368ull);
    std::shuffle(rank_to_key_.begin(), rank_to_key_.end(), ranking);
    std::mt19937_64 rng(options_.seed * 0xbf58476d1ce4e5b9ull + 7);
    std::vector<double> cdf(keys_.size());
    double total = 0;
    for (std::size_t r = 0; r < keys_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf[r] = total;
    }
    std::uniform_real_distribution<double> uniform(0.0, total);
    for (auto& schedule : schedules_) {
      schedule.resize(kScheduleLength);
      for (std::uint32_t& key : schedule) {
        const double u = uniform(rng);
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        key = rank_to_key_[std::min(rank, keys_.size() - 1)];
      }
    }
  }

  /// The untimed cache-filling pass: every key once, coldest rank first,
  /// so bounded caches end up holding the hottest keys.
  void fill_caches() {
    for (std::size_t r = keys_.size(); r-- > 0;) {
      const ReadKey& key = keys_[rank_to_key_[r]];
      ++attempted_;
      if (!get(key).ok()) ++failed_;
    }
  }

  /// The timed phase: for `seconds` (and at least exact_edits edits),
  /// cycle an edit block, an untimed cache refill and a read slice. The
  /// two reader threads live across slices and sleep in between, so
  /// edits always run alone. They first run unrecorded for the lead-in:
  /// a new thread's first requests grow its allocator arena, and edits
  /// that overlapped that ran 2–3× slower.
  void run_cycles(double seconds) {
    std::atomic<std::uint64_t> phase{state(0, kLeadIn)};
    std::atomic<std::size_t> parked{0};
    std::vector<ReaderResult> results(kReaders);
    std::vector<std::thread> threads;
    // Joins the readers on every exit path, exceptions included.
    struct Joiner {
      std::atomic<std::uint64_t>& phase;
      std::vector<std::thread>& threads;
      ~Joiner() {
        phase.store(state(0, kStop), std::memory_order_release);
        for (std::thread& t : threads) t.join();
      }
    } joiner{phase, threads};
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back([this, r, &phase, &parked, &results] {
        reader(r, phase, parked, results[r]);
      });
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(shape_.reader_lead_in_s));
    phase.store(state(0, kParked), std::memory_order_release);

    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    for (std::uint64_t slice = 1;
         Clock::now() < end || edits_.size() < shape_.exact_edits; ++slice) {
      closed_loop_edits(shape_.block_edits, /*measured=*/true, slice);
      fill_caches();
      const auto before = rig_.server->unified_stats();
      parked.store(0, std::memory_order_relaxed);
      phase.store(state(slice, kRecording), std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::duration<double>(shape_.slice_s));
      phase.store(state(slice, kParked), std::memory_order_release);
      while (parked.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      const auto after = rig_.server->unified_stats();
      add_layer_delta(base_stats_, before.base, after.base);
      add_layer_delta(overlay_stats_, before.overlay, after.overlay);
    }
    phase.store(state(0, kStop), std::memory_order_release);
    for (std::thread& t : threads) t.join();
    threads.clear();

    // Per-window figures, then medians over windows: a host stall inside
    // a few windows cannot move them. GETs per second sum each reader's
    // median window rate.
    std::vector<double> p50s, p99s;
    read_rps_ = 0;
    for (ReaderResult& result : results) {
      base_latency_.merge(result.base);
      overlay_latency_.merge(result.overlay);
      attempted_ += result.gets + result.lead_in_gets;
      failed_ += result.failures;
      read_spans_.absorb(std::move(result.spans));
      std::vector<double> rates;
      for (const ReadWindow& w : result.windows) {
        p50s.push_back(w.p50_us);
        p99s.push_back(w.p99_us);
        rates.push_back(w.rate);
      }
      read_rps_ += median(rates);
    }
    read_p50_us_ = median(p50s);
    read_p99_us_ = median(p99s);
  }

  // --- verification ------------------------------------------------------

  /// Every (page, view) key — the fill pass fetched them all — must come
  /// back from the replica's server byte-identical to the origin
  /// snapshot's answer.
  void verify_reads() {
    nav::EngineInternals& internals = rig_.engine->internals();
    const auto origin = internals.snapshots().current();
    if (!await_replica_epoch(*rig_.replica, origin->epoch(),
                             Clock::now() + std::chrono::seconds(10))) {
      ++failed_;
      std::cerr << "navbench: replica never caught up for verification\n";
      return;
    }
    bool corrupt_next = options_.inject_fault;
    for (const ReadKey& key : keys_) {
      ++attempted_;
      const auto served = get(key).body;
      auto expected = key.profile.empty()
                          ? origin->respond(key.path).body
                          : origin->respond_as(key.profile, key.path).body;
      if (corrupt_next && expected != nullptr) {
        expected = std::make_shared<const std::string>(*expected + "!");
        corrupt_next = false;
      }
      if (served == nullptr || expected == nullptr || *served != *expected) {
        ++failed_;
        std::cerr << "navbench: replica bytes differ from the origin for "
                  << key.path << " as '" << key.profile << "'\n";
      }
    }
    if (!rig_.replica->error().empty()) {
      ++failed_;
      std::cerr << "navbench: replica stream error: " << rig_.replica->error()
                << "\n";
    }
  }

  // --- results -----------------------------------------------------------

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  std::vector<Metric> end_to_end(double setup_s) const {
    return {
        {"setup_s", setup_s, "s"},
        {"edit_p50_ms", per_block(&EditSample::edit_ms, 0.5), "ms"},
        {"edit_p90_ms", per_block(&EditSample::edit_ms, 0.9), "ms"},
        {"visible_p50_ms", per_block(&EditSample::visible_ms, 0.5), "ms"},
        {"visible_p90_ms", per_block(&EditSample::visible_ms, 0.9), "ms"},
        {"read_p50_us", read_p50_us_, "us"},
        {"read_p99_us", read_p99_us_, "us"},
        {"read_rps", read_rps_, "1/s"},
        {"wire_kib_per_edit", wire_kib_per_edit(), "KiB"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  }

  /// Per-layer metrics of a traced run. Fails the run when the spans
  /// overflowed the program's ring or (on edit_solo) when the blocking
  /// path does not add up to visible_p50_ms within a tenth.
  std::vector<Metric> per_layer(const std::vector<Metric>& e2e) {
    const auto by_kind = [&](EditKind kind) {
      std::vector<double> v;
      for (const EditSample& s : edits_) {
        if (s.kind == kind) v.push_back(s.edit_ms);
      }
      return median(v);
    };
    const auto counted = [&](std::size_t nav::RebuildReport::*field) {
      std::vector<double> v;
      for (const EditSample& s : exact_prefix()) {
        v.push_back(static_cast<double>(s.report.*field));
      }
      return median(v);
    };
    std::vector<double> useful;
    for (const EditSample& s : exact_prefix()) {
      useful.push_back(s.report.nodes_rebuilt == 0
                           ? 0.0
                           : static_cast<double>(s.report.nodes_changed) /
                                 static_cast<double>(s.report.nodes_rebuilt));
    }
    std::vector<double> nodes_ms;
    for (const EditSample& s : edits_) nodes_ms.push_back(s.run_ms - s.plan_ms);

    const double visible_p50 = median(column(&EditSample::visible_ms));
    const double blocking =
        median(column(&EditSample::run_ms)) +
        median(column(&EditSample::publish_ms)) +
        median(column(&EditSample::poll_wait_ms)) +
        median(column(&EditSample::encode_ms)) +
        median(column(&EditSample::ship_ms)) +
        median(column(&EditSample::apply_ms)) +
        median(column(&EditSample::fresh_get_ms));
    const double unaccounted = visible_p50 - blocking;
    std::fprintf(stderr,
                 "navbench: blocking path %.3f ms of visible_p50 %.3f ms "
                 "(unaccounted %.3f ms, %.1f%%)\n",
                 blocking, visible_p50, unaccounted,
                 100.0 * unaccounted / visible_p50);
    // Gated on the full-size site only: on the smoke site fixed costs
    // outside the layers are a large share of a ~4 ms edit.
    if (options_.workload == Workload::EditSolo && !options_.smoke &&
        std::abs(unaccounted) > 0.1 * visible_p50) {
      ++failed_;
      std::cerr << "navbench: the blocking-path layers miss visible_p50_ms "
                   "by more than a tenth\n";
    }
    if (rig_.registry->spans().dropped() > 0) {
      ++failed_;
      std::cerr << "navbench: the program's span ring dropped spans\n";
    }

    const auto layer = [](const LatencyHistogram& h, double q) {
      return h.quantile_ns(q) / 1e3;
    };
    const auto ratio = [](std::size_t part, std::size_t whole) {
      return whole == 0 ? 0.0
                        : static_cast<double>(part) / static_cast<double>(whole);
    };
    const std::size_t requests = base_stats_.requests + overlay_stats_.requests;
    const auto e2e_value = [&](std::string_view name) {
      for (const Metric& m : e2e) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    const repl::Publisher::Stats wire = rig_.publisher->stats();
    return {
        {"nav.edit_arc_ms", by_kind(EditKind::Arc), "ms"},
        {"nav.edit_retitle_ms", by_kind(EditKind::Retitle), "ms"},
        {"nav.edit_family_ms", by_kind(EditKind::Family), "ms"},
        {"nav.run_ms", median(column(&EditSample::run_ms)), "ms"},
        {"nav.plan_ms", median(column(&EditSample::plan_ms)), "ms"},
        {"nav.publish_ms", median(column(&EditSample::publish_ms)), "ms"},
        {"nav.nodes_ms", median(nodes_ms), "ms"},
        {"nav.nodes_dirty", counted(&nav::RebuildReport::nodes_dirty), "count"},
        {"nav.nodes_rebuilt", counted(&nav::RebuildReport::nodes_rebuilt),
         "count"},
        {"nav.pages_rewoven", counted(&nav::RebuildReport::pages_rewoven),
         "count"},
        {"nav.linkbases_reauthored",
         counted(&nav::RebuildReport::linkbases_reauthored), "count"},
        {"nav.changed_per_rebuilt", median(useful), "ratio"},
        {"core.build_linkbase_ms", median(replays_.build_linkbase_ms), "ms"},
        {"core.weave_page_ms", median(replays_.weave_ms), "ms"},
        {"xml.write_ms", median(replays_.write_ms), "ms"},
        {"xml.parse_ms", median(replays_.parse_ms), "ms"},
        {"xml.linkbase_kib", median(replays_.linkbase_kib), "KiB"},
        {"xlink.load_ms", median(replays_.load_ms), "ms"},
        {"uri.normalize_ns", normalize_ns_, "ns"},
        {"serve.capture_ms", median(replays_.capture_ms), "ms"},
        {"repl.poll_wait_ms", median(column(&EditSample::poll_wait_ms)), "ms"},
        {"repl.encode_ms", median(column(&EditSample::encode_ms)), "ms"},
        {"repl.ship_ms", median(column(&EditSample::ship_ms)), "ms"},
        {"repl.apply_ms", median(column(&EditSample::apply_ms)), "ms"},
        {"repl.apply_tail_ms", median(column(&EditSample::apply_tail_ms)),
         "ms"},
        {"repl.encode_replay_ms", median(replays_.encode_ms), "ms"},
        {"repl.apply_replay_ms", median(replays_.apply_ms), "ms"},
        {"repl.delta_kib", median(replays_.delta_kib), "KiB"},
        {"repl.full_kib", static_cast<double>(wire.full_bytes) / 1024.0, "KiB"},
        {"repl.resync_fulls", static_cast<double>(wire.resync_fulls), "count"},
        {"serve.fresh_get_ms", median(column(&EditSample::fresh_get_ms)), "ms"},
        {"serve.base_get_us", layer(base_latency_, 0.5), "us"},
        {"serve.overlay_get_us", layer(overlay_latency_, 0.5), "us"},
        {"serve.base_hit_ratio",
         ratio(base_stats_.hits, base_stats_.requests), "ratio"},
        {"serve.overlay_hit_ratio",
         ratio(overlay_stats_.hits, overlay_stats_.requests), "ratio"},
        {"serve.evicted_per_1k",
         1000.0 * ratio(base_stats_.evicted + overlay_stats_.evicted, requests),
         "count"},
        {"serve.acquire_ns", acquire_ns_, "ns"},
        {"serve.validity_us", validity_us_, "us"},
        {"serve.resolve_us", resolve_us_, "us"},
        {"serve.compose_us", compose_us_, "us"},
        {"trace.unaccounted_ms", unaccounted, "ms"},
        {"trace.edit_p50_ms", e2e_value("edit_p50_ms"), "ms"},
        {"trace.visible_p50_ms", e2e_value("visible_p50_ms"), "ms"},
        {"trace.read_p50_us", e2e_value("read_p50_us"), "us"},
        {"trace.read_rps", e2e_value("read_rps"), "1/s"},
    };
  }

  /// Replays of the read path's single calls on an idle replica, after
  /// the timed phase (traced runs only).
  void replay_read_layers() {
    const auto snapshot = rig_.replica->store().current();
    constexpr std::size_t kSample = 512;
    std::vector<double> validity, resolve, compose;
    std::uint64_t trace = 1ull << 62;
    for (std::size_t r = 0; r < kSample && r < keys_.size(); ++r) {
      const ReadKey& key = keys_[rank_to_key_[r]];
      const auto t0 = Clock::now();
      const auto resolved = snapshot->respond(key.path);
      const auto t1 = Clock::now();
      read_spans_.add(trace, "replay.serve.resolve", ns_of(t0), ns_of(t1));
      resolve.push_back(ms_between(t0, t1) * 1e3);
      if (!key.profile.empty()) {
        const nav::Profile* profile = snapshot->find_profile(key.profile);
        const auto t2 = Clock::now();
        const serve::OverlayValidity token =
            snapshot->overlay_validity(*profile, key.path);
        const auto t3 = Clock::now();
        const auto composed = snapshot->respond_as(*profile, key.path);
        const auto t4 = Clock::now();
        read_spans_.add(trace, "replay.serve.validity", ns_of(t2), ns_of(t3));
        read_spans_.add(trace, "replay.serve.compose", ns_of(t3), ns_of(t4));
        validity.push_back(ms_between(t2, t3) * 1e3);
        compose.push_back(ms_between(t3, t4) * 1e3);
        if (token.base_body == nullptr || !composed.ok()) ++failed_;
      }
      if (!resolved.ok()) ++failed_;
      ++trace;
    }
    validity_us_ = median(validity);
    resolve_us_ = median(resolve);
    compose_us_ = median(compose);

    constexpr int kAcquires = 100000;
    const serve::SnapshotStore& store = rig_.replica->store();
    const auto a0 = Clock::now();
    for (int i = 0; i < kAcquires; ++i) {
      auto pinned = store.current();
      if (pinned == nullptr) ++failed_;
    }
    const auto a1 = Clock::now();
    read_spans_.add(trace++, "replay.serve.acquire", ns_of(a0), ns_of(a1));
    acquire_ns_ = ms_between(a0, a1) * 1e6 / kAcquires;

    // URI normalization over request URIs and the linkbase hrefs the
    // traversal arcs carry.
    std::vector<std::string> uris;
    for (const ReadKey& key : keys_) {
      if (key.profile.empty()) uris.push_back(key.uri);
    }
    for (const auto& [from, arcs] : snapshot->traversal_arcs()) {
      uris.push_back(from);
      for (const serve::SnapshotArc& arc : arcs) uris.push_back(arc.to);
    }
    std::size_t sink = 0;
    const auto n0 = Clock::now();
    for (const std::string& u : uris) {
      sink += navsep::uri::normalize(navsep::uri::parse(u)).path.size();
    }
    const auto n1 = Clock::now();
    read_spans_.add(trace++, "replay.uri.normalize", ns_of(n0), ns_of(n1));
    normalize_ns_ = uris.empty() ? 0.0
                                 : ms_between(n0, n1) * 1e6 /
                                       static_cast<double>(uris.size());
    if (sink == 0) ++failed_;
  }

  /// Every span of the run: the editor's, the readers' and the replays'.
  SpanStore take_spans() {
    SpanStore all = std::move(edit_spans_);
    all.absorb(std::move(read_spans_));
    return all;
  }

 private:
  struct ReadKey {
    std::string uri;      ///< absolute request URI
    std::string path;     ///< site path
    std::string profile;  ///< "" = the base page
  };

  /// One reader's figures over one statistics window of a read slice.
  struct ReadWindow {
    double p50_us = 0;
    double p99_us = 0;
    double rate = 0;  ///< GETs per second
  };

  struct ReaderResult {
    LatencyHistogram base, overlay;  ///< whole run, split by cache layer
    std::vector<ReadWindow> windows;
    std::uint64_t gets = 0;
    std::uint64_t lead_in_gets = 0;
    std::uint64_t failures = 0;
    SpanStore spans;
  };

  static constexpr std::size_t kReaders = 2;
  /// The readers' phase word: the slice number and a mode, in one atomic
  /// so a reader always sees which slice a mode belongs to.
  static constexpr std::uint64_t kLeadIn = 0, kParked = 1, kRecording = 2,
                                 kStop = 3;
  static constexpr std::uint64_t state(std::uint64_t slice,
                                       std::uint64_t mode) {
    return slice << 2 | mode;
  }
  static constexpr std::size_t kScheduleLength = std::size_t{1} << 20;
  static constexpr std::uint64_t kReadSampleMask = 1023;  // 1 in 1024 traced

  navsep::site::Response get(const ReadKey& key) const {
    return key.profile.empty() ? rig_.server->get(key.uri)
                               : rig_.server->get(key.uri, key.profile);
  }

  /// A closed-loop reader: the next GET leaves when the previous returns.
  /// Each GET is timed from the previous one's return. Nothing is
  /// recorded during the lead-in; while parked the reader sleeps. It
  /// counts itself into `parked` once per slice — also for a slice it
  /// slept through, so the main thread never waits on it.
  void reader(std::size_t index, const std::atomic<std::uint64_t>& phase,
              std::atomic<std::size_t>& parked, ReaderResult& out) const {
    const std::vector<std::uint32_t>& schedule = schedules_[index];
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(shape_.window_s));
    // A GET that throws counts as a failed read; the reader carries on.
    const auto fetch = [&](const ReadKey& key) {
      try {
        if (get(key).ok()) return;
      } catch (const std::exception& e) {
        std::cerr << "navbench: read failed: " << e.what() << "\n";
      }
      ++out.failures;
    };
    std::size_t i = 0;
    std::uint64_t done_slice = 0;
    for (std::uint64_t word; ((word = phase.load(std::memory_order_acquire)) &
                              3) != kStop;) {
      const std::uint64_t mode = word & 3;
      const std::uint64_t slice = word >> 2;
      if (mode == kLeadIn) {
        fetch(keys_[schedule[i++ & (kScheduleLength - 1)]]);
        ++out.lead_in_gets;
        continue;
      }
      if (mode == kParked) {
        if (slice != done_slice) {  // slept through the whole slice
          done_slice = slice;
          parked.fetch_add(1, std::memory_order_release);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      // A slice: timed GETs, folded into windows of window_s.
      LatencyHistogram current;
      std::uint64_t window_gets = 0;
      auto window_start = Clock::now();
      auto prev = window_start;
      const auto close_window = [&](Clock::time_point now) {
        const double span =
            std::chrono::duration<double>(now - window_start).count();
        // A slice's last, partial window counts when it is half full.
        if (window_gets != 0 && span >= shape_.window_s / 2) {
          out.windows.push_back(ReadWindow{current.quantile_ns(0.5) / 1e3,
                                           current.quantile_ns(0.99) / 1e3,
                                           window_gets / span});
        }
        current = LatencyHistogram{};
        window_gets = 0;
        window_start = now;
      };
      while (phase.load(std::memory_order_relaxed) == word) {
        const std::uint32_t k = schedule[i & (kScheduleLength - 1)];
        const ReadKey& key = keys_[k];
        fetch(key);
        const auto now = Clock::now();
        const auto ns = static_cast<std::uint64_t>((now - prev).count());
        current.record(ns);
        (key.profile.empty() ? out.base : out.overlay).record(ns);
        if (options_.trace && (i & kReadSampleMask) == 0) {
          out.spans.add((std::uint64_t{1} << 63) | (index << 40) | i,
                        key.profile.empty() ? "read.base" : "read.overlay",
                        ns_of(prev), ns_of(now));
        }
        prev = now;
        ++i;
        ++out.gets;
        ++window_gets;
        if (now - window_start >= window) close_window(now);
      }
      close_window(prev);
      done_slice = slice;
      parked.fetch_add(1, std::memory_order_release);
    }
  }

  /// Copy the program's spans of the edit's epoch into the benchmark's
  /// trace, under the edit's root span, and derive the blocking-path
  /// layer times. `seen` is when the replica's store showed the epoch:
  /// the replica publishes before it releases the previous snapshot, so
  /// repl.apply splits there into its blocking part and a tail that runs
  /// beside the fresh GET. False (and a failure) when a span is missing.
  bool import_spans(EditSample& sample, Clock::time_point t0,
                    Clock::time_point t1, Clock::time_point seen,
                    Clock::time_point t2) {
    const obs::SpanLog& log = rig_.registry->spans();
    std::vector<obs::Span> spans;
    const obs::Span* run = nullptr;
    const obs::Span* publish = nullptr;
    const obs::Span* encode = nullptr;
    const obs::Span* ship = nullptr;
    const obs::Span* apply = nullptr;
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    // Spans are recorded when their scope closes, and the fresh GET can
    // return before that: the replica publishes the epoch inside
    // repl.apply, and the publisher's thread closes repl.ship after its
    // write returns. Wait until the epoch has all of them.
    for (;;) {
      spans = log.for_epoch(sample.epoch);
      run = publish = encode = ship = apply = nullptr;
      for (const obs::Span& s : spans) {
        if (s.name == "build.run") run = &s;
        if (s.name == "build.publish") publish = &s;
        if (s.name == "repl.encode") encode = &s;
        if (s.name == "repl.ship") ship = &s;
        if (s.name == "repl.apply") apply = &s;
      }
      if (run != nullptr && publish != nullptr && encode != nullptr &&
          ship != nullptr && apply != nullptr) {
        break;
      }
      if (Clock::now() > deadline) {
        ++failed_;
        std::cerr << "navbench: epoch " << sample.epoch
                  << " lacks a blocking-path span\n";
        return false;
      }
      std::this_thread::yield();
    }
    const std::uint64_t id = sample.epoch;
    const int root = edit_spans_.add(id, "edit", ns_of(t0), ns_of(t2));
    const int mutation =
        edit_spans_.add(id, "nav.mutation", ns_of(t0), ns_of(t1), root);
    const int run_index =
        edit_spans_.add(id, run->name, run->begin_ns, run->end_ns, mutation);
    for (const obs::Span& s : spans) {
      if (s.name == "build.plan") {
        edit_spans_.add(id, s.name, s.begin_ns, s.end_ns, run_index);
        sample.plan_ms += static_cast<double>(s.duration_ns()) / 1e6;
      }
    }
    edit_spans_.add(id, publish->name, publish->begin_ns, publish->end_ns,
                    mutation);
    edit_spans_.add(id, "repl.poll_wait", publish->end_ns, encode->begin_ns,
                    root);
    for (const obs::Span* s : {encode, ship, apply}) {
      edit_spans_.add(id, s->name, s->begin_ns, s->end_ns, root);
    }
    edit_spans_.add(id, "serve.fresh_get", ns_of(seen), ns_of(t2), root);
    const auto span_ms = [](std::uint64_t b, std::uint64_t e) {
      return (static_cast<double>(e) - static_cast<double>(b)) / 1e6;
    };
    sample.run_ms = span_ms(run->begin_ns, run->end_ns);
    sample.publish_ms = span_ms(publish->begin_ns, publish->end_ns);
    sample.poll_wait_ms = span_ms(publish->end_ns, encode->begin_ns);
    sample.encode_ms = span_ms(encode->begin_ns, encode->end_ns);
    sample.ship_ms = span_ms(ship->begin_ns, ship->end_ns);
    sample.apply_ms = span_ms(apply->begin_ns, ns_of(seen));
    sample.apply_tail_ms = span_ms(ns_of(seen), apply->end_ns);
    sample.fresh_get_ms = span_ms(ns_of(seen), ns_of(t2));
    return true;
  }

  /// Replays of the edit path's single layer calls on the state the edit
  /// left, each timed alone (traced runs only).
  void replay_edit_layers(
      const std::shared_ptr<const serve::SiteSnapshot>& prev,
      const std::shared_ptr<const serve::SiteSnapshot>& next,
      const EditStep& step, std::uint64_t id) {
    nav::Engine& engine = *rig_.engine;
    const auto timed = [&](const char* name, std::vector<double>& into,
                           const auto& call) {
      const auto t0 = Clock::now();
      auto result = call();
      const auto t1 = Clock::now();
      edit_spans_.add(id, name, ns_of(t0), ns_of(t1));
      into.push_back(ms_between(t0, t1));
      return result;
    };
    const auto doc = timed("replay.core.build_linkbase",
                           replays_.build_linkbase_ms, [&] {
                             return core::build_linkbase(engine.structure());
                           });
    const std::string text = timed("replay.xml.write", replays_.write_ms,
                                   [&] { return navsep::xml::write(*doc); });
    navsep::xml::ParseOptions parse_options;
    parse_options.base_uri = next->base() + "links.xml";
    const auto parsed = timed("replay.xml.parse", replays_.parse_ms, [&] {
      return navsep::xml::parse(text, parse_options);
    });
    const auto graph = timed("replay.xlink.load", replays_.load_ms,
                             [&] { return core::load_linkbase(*parsed); });
    const std::string member =
        step.kind == EditKind::Retitle
            ? step.node_id
            : engine.structure().members().front().node_id;
    const std::string page = timed("replay.core.weave_page", replays_.weave_ms,
                                   [&] { return engine.compose_page(member); });
    const auto captured = timed("replay.serve.capture", replays_.capture_ms, [&] {
      serve::SnapshotOverlayInputs inputs;
      inputs.arcs = next->overlay_arcs();
      inputs.structure_source = next->structure_source();
      inputs.families = next->overlay_families();
      inputs.profiles = next->profiles();
      inputs.slice_hashes = next->slice_hashes();
      inputs.routes = next->route_table();
      return std::make_shared<serve::SiteSnapshot>(
          engine.site(), engine.internals().arc_table(), next->base(),
          next->epoch(), std::move(inputs));
    });
    const std::string delta = timed("replay.repl.encode", replays_.encode_ms,
                                    [&] { return repl::encode_delta(*prev, *next); });
    const auto applied = timed("replay.repl.apply", replays_.apply_ms,
                               [&] { return repl::apply_delta(delta, *prev); });
    replays_.delta_kib.push_back(static_cast<double>(delta.size()) / 1024.0);
    const auto links = next->body("links.xml");
    replays_.linkbase_kib.push_back(
        links == nullptr ? 0.0 : static_cast<double>(links->size()) / 1024.0);
    // The replays must reproduce what the program published.
    const auto replayed = applied->body("links.xml");
    if (page.empty() || captured->size() != next->size() ||
        applied->epoch() != next->epoch() || replayed == nullptr ||
        links == nullptr || *replayed != *links) {
      ++failed_;
      std::cerr << "navbench: a replay disagreed with the published epoch\n";
    }
  }

  std::vector<double> column(double EditSample::*field) const {
    std::vector<double> v;
    v.reserve(edits_.size());
    for (const EditSample& s : edits_) v.push_back(s.*field);
    return v;
  }

  /// The q-quantile of `field` within each edit block, then the median
  /// over blocks.
  double per_block(double EditSample::*field, double q) const {
    std::vector<double> per_block_values;
    std::vector<double> block_values;
    for (std::size_t i = 0; i < edits_.size(); ++i) {
      block_values.push_back(edits_[i].*field);
      if (i + 1 == edits_.size() || edits_[i + 1].block != edits_[i].block) {
        per_block_values.push_back(quantile(block_values, q));
        block_values.clear();
      }
    }
    return median(per_block_values);
  }

  static void add_layer_delta(serve::ConcurrentServer::LayerStats& total,
                              const serve::ConcurrentServer::LayerStats& a,
                              const serve::ConcurrentServer::LayerStats& b) {
    total.requests += b.requests - a.requests;
    total.hits += b.hits - a.hits;
    total.evicted += b.evicted - a.evicted;
  }

  /// The first exact_edits measured edits: the same edits for a given
  /// seed in every run, so byte and node counts over them repeat
  /// exactly however many edits the timed phase fits.
  std::vector<EditSample> exact_prefix() const {
    const std::size_t n = std::min(shape_.exact_edits, edits_.size());
    return {edits_.begin(), edits_.begin() + static_cast<std::ptrdiff_t>(n)};
  }

  double wire_kib_per_edit() const {
    const std::vector<EditSample> prefix = exact_prefix();
    if (prefix.empty()) return 0.0;
    double bytes = 0;
    for (const EditSample& s : prefix) {
      bytes += static_cast<double>(s.delta_wire_bytes);
    }
    return bytes / static_cast<double>(prefix.size()) / 1024.0;
  }

  static double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  }

  Options options_;
  Shape shape_;
  Rig& rig_;
  EditScript script_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;

  std::vector<EditSample> edits_;
  Replays replays_;
  SpanStore edit_spans_;
  SpanStore read_spans_;

  std::vector<ReadKey> keys_;
  std::vector<std::uint32_t> rank_to_key_;
  std::vector<std::vector<std::uint32_t>> schedules_ =
      std::vector<std::vector<std::uint32_t>>(kReaders);
  LatencyHistogram base_latency_, overlay_latency_;
  double read_p50_us_ = 0, read_p99_us_ = 0, read_rps_ = 0;
  serve::ConcurrentServer::LayerStats base_stats_, overlay_stats_;
  double acquire_ns_ = 0, validity_us_ = 0, resolve_us_ = 0, compose_us_ = 0,
         normalize_ns_ = 0;
};

// --- main ----------------------------------------------------------------------

int usage() {
  std::cerr << "usage: navbench --workload edit_solo|read_zipf --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--smoke] "
               "[--inject-fault]\n";
  return 2;
}

bool parse_options(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload_name = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--inject-fault") {
      options.inject_fault = true;
    } else {
      return false;
    }
  }
  if (!have_workload || !(options.seconds > 0)) return false;
  if (options.workload_name == "edit_solo") {
    options.workload = Workload::EditSolo;
  } else if (options.workload_name == "read_zipf") {
    options.workload = Workload::ReadZipf;
  } else {
    return false;
  }
  return true;
}

int run(const Options& options) {
  const Shape shape = shape_for(options);
  // Set up several times and keep the last rig: setup_s is the median.
  std::vector<double> setup_times;
  std::unique_ptr<Rig> rig;
  for (std::size_t i = 0; i < shape.setups; ++i) {
    const bool last = i + 1 == shape.setups;
    rig.reset();  // tear the previous rig down before timing the next
    auto [made, seconds] = make_rig(
        shape, last && options.trace ? std::make_shared<obs::Registry>()
                                     : nullptr);
    rig = std::move(made);
    setup_times.push_back(seconds);
  }
  const double setup_s = median(setup_times);

  Bench bench(options, shape, *rig);
  bench.plan_reads();
  bench.closed_loop_edits(shape.warmup_edits, /*measured=*/false);
  bench.fill_caches();
  bench.run_cycles(options.seconds);
  bench.verify_reads();

  std::vector<Metric> metrics = bench.end_to_end(setup_s);
  if (options.trace) {
    bench.replay_read_layers();
    metrics = bench.per_layer(metrics);
    const SpanStore spans = bench.take_spans();
    std::cerr << spans.self_time_table();
    if (!options.trace_out.empty() && !spans.write_json(options.trace_out)) {
      std::cerr << "navbench: cannot write " << options.trace_out << "\n";
      return 1;
    }
  }
  const bool correct = bench.failed() == 0;
  std::cout << navbench::result_line(correct, bench.attempted(), bench.failed(),
                                     metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) return usage();
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "navbench: " << e.what() << "\n";
    return 1;
  }
}
