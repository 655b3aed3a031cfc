// The observability layer: the unified metrics registry, the
// per-session navigation trace rings, and the epoch-scoped pipeline
// spans — plus the reconciliation contract that makes the registry
// trustworthy: every exported counter/gauge must equal the per-layer
// stats() view it mirrors, exactly.
//
// The stress test here joins CI's tsan job: trace capture ON while
// readers verify byte-oracle identity, a writer ping-pongs the
// linkbase, and a sampler thread snapshots the registry mid-flight.
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/workload.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace repl = navsep::repl;
namespace serve = navsep::serve;
namespace site = navsep::site;

std::unique_ptr<nav::Engine> synthetic_engine(std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 2,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 2,
                                                .seed = 7})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

std::map<std::string, std::string> site_bytes(const nav::Engine& engine) {
  std::map<std::string, std::string> out;
  for (auto& [path, content] : engine.site().artifacts()) {
    out.emplace(path, content);
  }
  return out;
}

// --- registry instruments -----------------------------------------------------

TEST(Registry, InstrumentsAreNamedStableAndConcurrent) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("x.count");
  c.add();
  c.add(4);
  // Get-or-create: the same name resolves to the same instrument.
  EXPECT_EQ(&registry.counter("x.count"), &c);
  EXPECT_EQ(c.value(), 5u);

  registry.gauge("x.level").set(-3);
  registry.gauge("x.level").add(10);
  EXPECT_EQ(registry.gauge("x.level").value(), 7);

  obs::Histogram& h = registry.histogram("x.latency");
  for (std::uint64_t v : {1u, 2u, 4u, 100u}) h.record(v);
  const obs::HistogramView view = h.view();
  EXPECT_EQ(view.count, 4u);
  EXPECT_EQ(view.sum, 107u);
  EXPECT_EQ(view.max, 100u);

  const obs::Registry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("x.count"), 5u);
  EXPECT_EQ(snap.gauges.at("x.level"), 7);
  EXPECT_EQ(snap.histograms.at("x.latency").count, 4u);
}

TEST(Registry, SamplersRunAtSnapshotAndHandlesUnregister) {
  obs::Registry registry;
  int pulls = 0;
  obs::SamplerHandle handle = registry.add_sampler([&] {
    ++pulls;
    registry.gauge("sampled.value").set(pulls);
  });
  EXPECT_TRUE(handle.attached());
  EXPECT_EQ(pulls, 0);  // pull, not push: nothing runs until snapshot()

  EXPECT_EQ(registry.snapshot().gauges.at("sampled.value"), 1);
  EXPECT_EQ(registry.snapshot().gauges.at("sampled.value"), 2);

  // Moving the handle moves the registration; resetting the moved-from
  // handle is a no-op.
  obs::SamplerHandle moved = std::move(handle);
  handle.reset();
  EXPECT_TRUE(moved.attached());
  EXPECT_EQ(registry.snapshot().gauges.at("sampled.value"), 3);

  moved.reset();
  EXPECT_FALSE(moved.attached());
  // Unregistered: the gauge keeps its last value but the hook is gone.
  EXPECT_EQ(registry.snapshot().gauges.at("sampled.value"), 3);
  EXPECT_EQ(pulls, 3);
}

TEST(Registry, ExportersCarryEverySection) {
  obs::Registry registry;
  registry.counter("a.count").add(7);
  registry.gauge("b.gauge").set(9);
  registry.histogram("c.hist").record(32);
  {
    obs::ScopedSpan span(&registry.spans(), "unit.stage", 3);
  }

  const obs::Registry::Snapshot snap = registry.snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\": {\"recorded\": 1"), std::string::npos);

  const std::string table = snap.to_table();
  EXPECT_NE(table.find("a.count"), std::string::npos);
  EXPECT_NE(table.find("counters"), std::string::npos);
  EXPECT_NE(table.find("histograms"), std::string::npos);
}

// --- the interpolated log2 quantile -------------------------------------------

TEST(Quantile, InterpolatesWithinBucketsInsteadOfUpperBounds) {
  obs::HistogramView h;
  h.record(100);
  h.record(1000);
  h.record(1000);
  h.record(100000);

  // q0 sits in bucket [64,128): interpolated, so well under the upper
  // bound, and never above the sample's own bucket ceiling.
  EXPECT_LE(h.quantile(0.0), 128.0);
  // The median lands in [512,1024): the old upper-bound rule answered
  // 1024 (a value strictly greater than every sample in the bucket);
  // interpolation stays inside the half-open range.
  EXPECT_GE(h.quantile(0.5), 512.0);
  EXPECT_LT(std::llround(h.quantile(0.5)), 1024);
  // The top quantile is the tracked maximum itself, exactly.
  EXPECT_EQ(h.quantile(1.0), 100000.0);
}

TEST(Quantile, ObsHistogramAndLatencyHistogramAgree) {
  // Same samples through the concurrent Histogram and the single-writer
  // tally (the workload's per-session latency histogram): one bucketing,
  // one quantile fold, so the two must answer identically.
  obs::HistogramView lat;
  obs::Histogram hist;
  for (std::uint64_t v : {3u, 17u, 17u, 90u, 4000u, 70000u, 70000u, 70001u}) {
    lat.record(v);
    hist.record(v);
  }
  const obs::HistogramView view = hist.view();
  EXPECT_EQ(lat.buckets, view.buckets);
  // The shared bucketing: bucket i holds [2^i, 2^(i+1)), the last one
  // everything above.
  EXPECT_EQ(obs::log2_bucket(0), 0u);
  EXPECT_EQ(obs::log2_bucket(1), 0u);
  EXPECT_EQ(obs::log2_bucket(3), 1u);
  EXPECT_EQ(obs::log2_bucket(1023), 9u);
  EXPECT_EQ(obs::log2_bucket(1024), 10u);
  EXPECT_EQ(obs::log2_bucket(~std::uint64_t{0}), obs::kLog2Buckets - 1);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(lat.quantile(q), view.quantile(q)) << "q=" << q;
  }
}

TEST(Quantile, AbsorbedBucketsAnswerLikeRecordedOnes) {
  obs::HistogramView lat;
  for (std::uint64_t v = 1; v <= 512; ++v) lat.record(v * 3);

  obs::Histogram hist;
  hist.absorb(lat);
  const obs::HistogramView view = hist.view();
  EXPECT_EQ(view.count, lat.count);
  EXPECT_EQ(view.sum, lat.sum);
  EXPECT_EQ(view.max, lat.max);
  EXPECT_EQ(view.quantile(0.5), lat.quantile(0.5));
}

TEST(Quantile, EdgesAreWellDefinedOnDegeneratePopulations) {
  // Empty: every quantile is 0, for a tally and a Histogram's view.
  obs::HistogramView empty_lat;
  obs::Histogram empty_hist;
  const obs::HistogramView empty_view = empty_hist.view();
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(empty_lat.quantile(q), 0.0) << "q=" << q;
    EXPECT_EQ(empty_view.quantile(q), 0.0) << "q=" << q;
  }

  // All-zero samples: count > 0 but max == 0. q=1 must be the tracked
  // maximum — 0 — not an interpolated position inside bucket [0,2)
  // (the pre-fix code special-cased q>=1 only when max > 0 and answered
  // ~2 for a population that never contained anything but zeros).
  obs::HistogramView zero_lat;
  obs::Histogram zero_hist;
  for (int i = 0; i < 5; ++i) {
    zero_lat.record(0);
    zero_hist.record(0);
  }
  const obs::HistogramView zero_view = zero_hist.view();
  EXPECT_EQ(zero_lat.quantile(1.0), 0.0);
  EXPECT_EQ(zero_view.quantile(1.0), 0.0);
  EXPECT_EQ(zero_lat.quantile(0.0), 0.0);
  EXPECT_EQ(zero_view.quantile(0.0), 0.0);

  // q<=0 on a real population: the minimum's bucket LOWER bound (the
  // tightest claim a log2 sketch can make about the smallest sample),
  // not a mid-bucket interpolation. Two samples of 100 live in
  // [64,128): the floor is 64, exactly, under any q <= 0.
  obs::HistogramView lat;
  obs::Histogram hist;
  for (int i = 0; i < 2; ++i) {
    lat.record(100);
    hist.record(100);
  }
  const obs::HistogramView view = hist.view();
  EXPECT_EQ(lat.quantile(0.0), 64.0);
  EXPECT_EQ(view.quantile(0.0), 64.0);
  EXPECT_EQ(lat.quantile(-1.0), 64.0);  // clamped, same floor
  EXPECT_EQ(lat.quantile(1.0), 100.0);  // and the ceiling is exact
  EXPECT_EQ(view.quantile(1.0), 100.0);
}

// --- trace rings --------------------------------------------------------------

obs::TraceEvent event_to(const std::string& to) {
  obs::TraceEvent e;
  e.to = to;
  return e;
}

TEST(TraceRing, OverwritesOldestOnWraparoundAndCountsDrops) {
  obs::TraceRing ring(8);
  for (int i = 0; i < 19; ++i) ring.record(event_to("p" + std::to_string(i)));

  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.recorded(), 19u);
  EXPECT_EQ(ring.dropped(), 11u);

  // Retained: the last 8 events, oldest first — p11..p18.
  const std::vector<obs::TraceEvent> events = ring.events();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].to,
              "p" + std::to_string(11 + i));
  }
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  obs::TraceRing ring(0);
  ring.record(event_to("a"));
  ring.record(event_to("b"));
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.events().front().to, "b");
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(TraceAggregate, BuildsPopularityTablesAcrossRings) {
  obs::TraceRing r1(16);
  obs::TraceRing r2(16);
  obs::TraceEvent arc;
  arc.from = "index.html";
  arc.to = "guernica.html";
  arc.role = "next";
  r1.record(arc);
  r1.record(arc);
  r2.record(arc);
  obs::TraceEvent entry = event_to("index.html");  // role "" = direct entry
  r2.record(entry);
  obs::TraceEvent failed = event_to("gone.html");
  failed.ok = false;
  r2.record(failed);

  obs::TraceAggregate agg;
  agg.absorb(r1);
  agg.absorb(r2);
  EXPECT_EQ(agg.events, 5u);
  EXPECT_EQ(agg.failures, 1u);
  EXPECT_EQ(agg.recorded, 5u);
  EXPECT_EQ(agg.dropped, 0u);
  EXPECT_EQ(agg.page_views.at("guernica.html"), 3u);
  EXPECT_EQ(agg.page_views.at("index.html"), 1u);
  // Direct entries and failures count as views but not arc follows.
  EXPECT_EQ(agg.arc_follows.size(), 1u);
  EXPECT_EQ(
      agg.arc_follows.at(obs::ArcKey{"index.html", "guernica.html", "next"}),
      3u);

  const auto top = agg.top_pages(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "guernica.html");
  EXPECT_EQ(top[0].second, 3u);
  // Ties break by name, ascending.
  EXPECT_EQ(top[1].first, "gone.html");
}

// --- pipeline spans -----------------------------------------------------------

TEST(SpanLog, BoundedRingFiltersByEpoch) {
  obs::SpanLog log(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    obs::Span span;
    span.name = "stage";
    span.epoch = i;
    span.begin_ns = i * 10;
    span.end_ns = i * 10 + 5;
    log.record(std::move(span));
  }
  EXPECT_EQ(log.recorded(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  const std::vector<obs::Span> events = log.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().epoch, 3u);  // oldest retained
  EXPECT_EQ(events.back().epoch, 6u);
  EXPECT_EQ(log.for_epoch(5).size(), 1u);
  EXPECT_TRUE(log.for_epoch(1).empty());  // overwritten
}

TEST(SpanLog, ScopedSpanIsANoOpWithoutALog) {
  {
    obs::ScopedSpan span(nullptr, "nothing", 1);
    span.set_epoch(2);
  }  // must not crash or record anywhere
  obs::SpanLog log;
  {
    obs::ScopedSpan span(&log, "real", 0);
    span.set_epoch(9);
  }
  const std::vector<obs::Span> events = log.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "real");
  EXPECT_EQ(events[0].epoch, 9u);
  EXPECT_GE(events[0].end_ns, events[0].begin_ns);
}

TEST(PipelineSpans, EditBurstCorrelatesByTargetEpoch) {
  auto engine = synthetic_engine(3);
  auto registry = std::make_shared<obs::Registry>();
  engine->attach_telemetry(registry);

  const std::uint64_t before = engine->snapshots().epoch();
  // Copy the id out: retitling regenerates the structure (and frees the
  // member list a reference would point into).
  const std::string node_id = engine->structure().members().front().node_id;
  (void)engine->retitle_node(node_id, "Spanned Title");
  const std::uint64_t after = engine->snapshots().epoch();
  ASSERT_GT(after, before);

  // Every stage of that edit's pipeline carries the same target epoch:
  // filtering the log by it reassembles the burst end-to-end.
  const std::vector<obs::Span> spans = registry->spans().for_epoch(after);
  ASSERT_FALSE(spans.empty());
  bool saw_run = false;
  bool saw_plan = false;  // every run plans its graph
  bool saw_publish = false;
  for (const obs::Span& span : spans) {
    EXPECT_EQ(span.epoch, after);
    EXPECT_GE(span.end_ns, span.begin_ns);
    if (span.name == "build.run") saw_run = true;
    if (span.name == "build.plan") saw_plan = true;
    if (span.name == "build.publish") saw_publish = true;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_publish);

  // The rebuild counters moved with the edit.
  const obs::Registry::Snapshot snap = registry->snapshot();
  EXPECT_GE(snap.counters.at("build.runs"), 1u);
  EXPECT_GE(snap.counters.at("build.pages_rewoven"), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.gauges.at("store.epoch")), after);
}

TEST(PipelineSpans, ReplicationStagesCarryTheFrameEpoch) {
  auto engine = synthetic_engine(3);
  auto registry = std::make_shared<obs::Registry>();

  repl::PublisherOptions options;
  options.telemetry = registry;
  auto publisher =
      engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0), options);
  repl::Replica replica = repl::Replica::connect(publisher->endpoint());
  replica.attach_telemetry(registry);
  replica.start();

  const std::string node_id = engine->structure().members().front().node_id;
  for (int i = 0; i < 3; ++i) {
    (void)engine->retitle_node(node_id, "repl-" + std::to_string(i));
  }
  const std::uint64_t target = engine->snapshots().epoch();
  ASSERT_TRUE(replica.wait_for_epoch(target, std::chrono::seconds(30)));
  replica.stop();

  // The last epoch crossed the wire: encode and ship on the origin side,
  // apply on the replica side, all stamped with it. The ship span lands
  // asynchronously — wait_for_epoch() can return as soon as the replica
  // applies the frame, a hair before the publisher's sender thread has
  // closed its ScopedSpan — so poll with a deadline instead of reading
  // the log once.
  bool saw_encode = false;
  bool saw_ship = false;
  bool saw_apply = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    for (const obs::Span& span : registry->spans().for_epoch(target)) {
      if (span.name == "repl.encode") saw_encode = true;
      if (span.name == "repl.ship") saw_ship = true;
      if (span.name == "repl.apply") saw_apply = true;
    }
    if (saw_encode && saw_ship && saw_apply) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_TRUE(saw_encode);
  EXPECT_TRUE(saw_ship);
  EXPECT_TRUE(saw_apply);

  // Both ends' samplers reconcile with their stats() structs.
  const obs::Registry::Snapshot snap = registry->snapshot();
  const repl::Publisher::Stats ps = publisher->stats();
  const repl::ReplicaStats rs = replica.stats();
  EXPECT_EQ(static_cast<std::size_t>(snap.gauges.at("repl.pub.full_frames")),
            ps.full_frames);
  EXPECT_EQ(static_cast<std::size_t>(snap.gauges.at("repl.pub.delta_frames")),
            ps.delta_frames);
  EXPECT_EQ(
      static_cast<std::size_t>(snap.gauges.at("repl.rep.frames_applied")),
      rs.frames_applied);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.gauges.at("repl.rep.epoch")),
            rs.epoch);
  EXPECT_EQ(rs.epoch, target);
}

// --- workload capture + the reconciliation contract ---------------------------

TEST(WorkloadTelemetry, TracesCaptureNavigationAndCountersReconcile) {
  auto engine = synthetic_engine(4);
  engine->register_profile({"tour", {"ByAuthor"}});
  auto registry = std::make_shared<obs::Registry>();
  engine->attach_telemetry(registry);
  auto server = engine->open_concurrent(4);
  obs::SamplerHandle metrics = server->register_metrics(registry);

  serve::Workload workload(*engine);
  serve::WorkloadOptions options;
  options.threads = 5;  // one session of every behavior incl. ProfileMix
  options.behaviors = {serve::Behavior::RandomSurfer,
                       serve::Behavior::GuidedTour,
                       serve::Behavior::ContextSwitcher,
                       serve::Behavior::Kiosk, serve::Behavior::ProfileMix};
  options.steps_per_session = 64;
  options.trace = {.enabled = true, .sample_every = 1, .ring_capacity = 512};
  options.telemetry = registry;
  const serve::WorkloadResult result = workload.run(*server, options);

  // Full capture on a quiescent site: every step is recorded and none
  // drop (ring capacity exceeds steps per session).
  EXPECT_EQ(result.traces.recorded, result.requests);
  EXPECT_EQ(result.traces.dropped, 0u);
  EXPECT_EQ(result.traces.events, result.requests);
  EXPECT_EQ(result.traces.failures, result.failures);

  // The popularity tables describe real navigation: views sum to the
  // events absorbed, arc follows carry real roles from real pages.
  std::uint64_t views = 0;
  for (const auto& [page, hits] : result.traces.page_views) views += hits;
  EXPECT_EQ(views, result.traces.events);
  EXPECT_FALSE(result.traces.arc_follows.empty());
  std::uint64_t follows = 0;
  for (const auto& [key, hits] : result.traces.arc_follows) {
    EXPECT_FALSE(key.role.empty());
    EXPECT_FALSE(key.to.empty());
    follows += hits;
  }
  EXPECT_LE(follows, views);  // entries/jumps view without following an arc
  const auto top = result.traces.top_pages(3);
  ASSERT_FALSE(top.empty());
  EXPECT_GE(top.front().second, top.back().second);

  // THE acceptance contract: the registry snapshot reconciles exactly
  // with every per-layer stats() view.
  const obs::Registry::Snapshot snap = registry->snapshot();
  EXPECT_EQ(snap.counters.at("workload.sessions"), result.sessions);
  EXPECT_EQ(snap.counters.at("workload.steps"), result.steps);
  EXPECT_EQ(snap.counters.at("workload.requests"), result.requests);
  EXPECT_EQ(snap.counters.at("workload.failures"), result.failures);
  EXPECT_EQ(snap.counters.at("workload.traces.recorded"),
            result.traces.recorded);
  EXPECT_EQ(snap.counters.at("workload.traces.dropped"),
            result.traces.dropped);
  EXPECT_EQ(snap.histograms.at("workload.latency").count,
            result.latency.count);
  EXPECT_EQ(snap.histograms.at("workload.latency").max,
            result.latency.max);
  for (const serve::BehaviorTally& tally : result.by_behavior) {
    EXPECT_EQ(snap.histograms
                  .at("workload.latency." +
                      std::string(serve::to_string(tally.behavior)))
                  .count,
              tally.latency.count)
        << serve::to_string(tally.behavior);
  }

  const serve::ConcurrentServer::UnifiedStats unified =
      server->unified_stats();
  const auto gauge = [&](const char* name) {
    return static_cast<std::size_t>(snap.gauges.at(name));
  };
  EXPECT_EQ(gauge("serve.base.requests"), unified.base.requests);
  EXPECT_EQ(gauge("serve.base.hits"), unified.base.hits);
  EXPECT_EQ(gauge("serve.base.resolves"), unified.base.resolves);
  EXPECT_EQ(gauge("serve.base.entries"), unified.base.entries);
  EXPECT_EQ(gauge("serve.base.inserted"), unified.base.inserted);
  EXPECT_EQ(gauge("serve.base.evicted"), unified.base.evicted);
  EXPECT_EQ(gauge("serve.base.resident_bytes"), unified.base.resident_bytes);
  EXPECT_EQ(gauge("serve.overlay.requests"), unified.overlay.requests);
  EXPECT_EQ(gauge("serve.overlay.hits"), unified.overlay.hits);
  EXPECT_EQ(gauge("serve.overlay.resolves"), unified.overlay.resolves);
  EXPECT_EQ(gauge("serve.overlay.entries"), unified.overlay.entries);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.gauges.at("serve.epoch")),
            unified.epoch);

  EXPECT_EQ(unified.base.inserted, unified.base.entries + unified.base.evicted);
  EXPECT_EQ(unified.overlay.inserted,
            unified.overlay.entries + unified.overlay.evicted);
}

TEST(WorkloadTelemetry, SamplingStrideAndRingCapBoundCapture) {
  auto engine = synthetic_engine(4);
  serve::Workload workload(*engine);
  serve::WorkloadOptions options;
  options.threads = 2;
  options.steps_per_session = 80;
  options.trace = {.enabled = true, .sample_every = 4, .ring_capacity = 8};
  const serve::WorkloadResult result = workload.run(options);

  // Stride: roughly every 4th request recorded (each session's clock is
  // its own, so the global total is within one stride per session).
  EXPECT_GE(result.traces.recorded, result.requests / 4);
  EXPECT_LE(result.traces.recorded, result.requests / 4 + options.threads);
  // Ring cap: at most 8 retained per session; overflow counted, and
  // recorded reconciles with retained + dropped.
  EXPECT_LE(result.traces.events, 8u * options.threads);
  EXPECT_EQ(result.traces.recorded,
            result.traces.events + result.traces.dropped);
  EXPECT_GT(result.traces.dropped, 0u);
}

TEST(WorkloadTelemetry, StridedSamplingIsNotEntryPageSkewed) {
  // Stride == steps: each session records exactly one step. With the
  // pre-fix zero phase, that step was ALWAYS step 0 — every session's
  // entry fetch — so a strided aggregate claimed the entry page was the
  // only page anyone visited, exactly the skew the landmark scorer and
  // cache warmer would then amplify. Per-session phase offsets must
  // spread the single sample across the walk.
  auto engine = synthetic_engine(4);
  serve::Workload workload(*engine);
  serve::WorkloadOptions options;
  options.threads = 16;
  options.steps_per_session = 64;
  options.behaviors = {serve::Behavior::RandomSurfer};
  options.trace = {.enabled = true,
                   .sample_every = 64,
                   .ring_capacity = 64};
  const serve::WorkloadResult result = workload.run(options);

  ASSERT_GE(result.traces.events, options.threads / 2);
  ASSERT_FALSE(result.traces.page_views.empty());
  std::size_t top = 0;
  for (const auto& [page, views] : result.traces.page_views) {
    top = std::max(top, views);
  }
  // No single page (the entry page, pre-fix) may account for every
  // sampled view, and the sampled walk must touch more than one page.
  EXPECT_GT(result.traces.page_views.size(), 1u);
  EXPECT_LT(top, result.traces.events);
}

TEST(WorkloadTelemetry, CaptureOffCostsAndRecordsNothing) {
  auto engine = synthetic_engine(4);
  serve::Workload workload(*engine);
  serve::WorkloadOptions options;
  options.threads = 2;
  options.steps_per_session = 32;
  const serve::WorkloadResult result = workload.run(options);
  EXPECT_EQ(result.traces.events, 0u);
  EXPECT_EQ(result.traces.recorded, 0u);
  EXPECT_TRUE(result.traces.page_views.empty());
}

// --- the TSan stress: capture on, registry sampled, bytes still oracle --------

// Four traced workload sessions navigate and two checker readers verify
// byte-oracle identity while one writer ping-pongs the linkbase between
// states A and B and a sampler thread snapshots the registry
// mid-flight. Trace capture and metrics export must not perturb the
// serve path: every body any checker sees must be byte-identical to
// state A's or state B's bytes — the single-threaded build is the
// oracle; anything else is a torn read.
TEST(ObsStress, TraceCaptureAndSnapshotsPreserveOracleBytes) {
  auto engine = synthetic_engine(4);

  const std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  std::size_t up_index = 0;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].role == hm::roles::kUp) {
      up_index = i;
      break;
    }
  }
  hm::AccessArc arc_a = arcs[up_index];
  arc_a.title = "Index (state A)";
  hm::AccessArc arc_b = arcs[up_index];
  arc_b.title = "Index (state B)";

  (void)engine->replace_arc(up_index, arc_a);
  const std::map<std::string, std::string> oracle_a = site_bytes(*engine);
  (void)engine->replace_arc(up_index, arc_b);
  const std::map<std::string, std::string> oracle_b = site_bytes(*engine);
  ASSERT_EQ(oracle_a.size(), oracle_b.size());
  (void)engine->replace_arc(up_index, arc_a);

  auto registry = std::make_shared<obs::Registry>();
  engine->attach_telemetry(registry);
  auto server = engine->open_concurrent(8);
  obs::SamplerHandle metrics = server->register_metrics(registry);
  serve::Workload workload(*engine);  // before the writer starts

  std::vector<std::string> paths;
  for (const auto& [path, _] : oracle_a) paths.push_back(path);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> torn{0};
  std::atomic<std::size_t> snapshots{0};

  // Traced sessions: full capture, telemetry attached, same server.
  serve::WorkloadResult result;
  std::thread traffic([&] {
    serve::WorkloadOptions options;
    options.threads = 4;
    options.steps_per_session = 192;
    options.trace = {.enabled = true, .sample_every = 1,
                     .ring_capacity = 256};
    options.telemetry = registry;
    result = workload.run(*server, options);
  });

  // Checker readers: byte-oracle identity on every read.
  std::vector<std::thread> checkers;
  for (std::size_t r = 0; r < 2; ++r) {
    checkers.emplace_back([&, r] {
      std::size_t i = r;
      while (!done.load(std::memory_order_acquire)) {
        const std::string& path = paths[i++ % paths.size()];
        site::Response resp = server->get(path);
        if (!resp.ok()) continue;
        reads.fetch_add(1, std::memory_order_relaxed);
        const std::string& body = *resp.body;
        auto a = oracle_a.find(path);
        auto b = oracle_b.find(path);
        const bool matches = (a != oracle_a.end() && body == a->second) ||
                             (b != oracle_b.end() && body == b->second);
        if (!matches) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The sampler: snapshot the registry continuously while everything
  // else runs — samplers re-enter server stats and engine stats.
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)registry->snapshot();
      snapshots.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  // The single writer: ping-pong A<->B, full rebuild every 8th round.
  constexpr std::size_t kWrites = 48;
  for (std::size_t w = 0; w < kWrites; ++w) {
    (void)engine->replace_arc(up_index, (w % 2 == 0) ? arc_b : arc_a);
    if (w % 8 == 7) engine->rebuild();
    std::this_thread::yield();
  }
  traffic.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : checkers) t.join();
  sampler.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_GT(result.traces.events, 0u);
  EXPECT_EQ(result.traces.recorded,
            result.traces.events + result.traces.dropped);

  // Quiescent again: the registry still reconciles exactly.
  const obs::Registry::Snapshot snap = registry->snapshot();
  EXPECT_EQ(snap.counters.at("workload.requests"), result.requests);
  const serve::ConcurrentServer::UnifiedStats unified =
      server->unified_stats();
  EXPECT_EQ(static_cast<std::size_t>(snap.gauges.at("serve.base.requests")),
            unified.base.requests);

  // Final convergence: full rebuild, then served == site bytes.
  engine->rebuild();
  const std::map<std::string, std::string> final_bytes = site_bytes(*engine);
  for (const auto& [path, bytes] : final_bytes) {
    site::Response resp = server->get(path);
    ASSERT_TRUE(resp.ok()) << path;
    EXPECT_EQ(*resp.body, bytes) << path;
  }
}

}  // namespace
