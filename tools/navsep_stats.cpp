// navsep_stats — one samplable view of the whole serving stack.
//
// Builds the synthetic museum, attaches ONE obs::Registry to every
// stat producer (engine + build graph, concurrent server shards,
// workload driver, optionally a publisher/replica pair over a real
// loopback socket), drives traffic through it, and exports the
// registry snapshot:
//
//   navsep_stats run [--paintings N] [--profiles P] [--threads T]
//                [--steps S] [--shards K] [--seed X]
//                [--trace off|sampled|full] [--repl]
//                [--landmarks K] [--warm N]
//                [--format json|table] [--out PATH]
//     Drive one workload (with a few interleaved edits so the build
//     and publish spans show up), then print the unified snapshot —
//     every layer's counters under one naming scheme, plus the
//     navigation popularity tables when tracing is on. --landmarks K
//     feeds the traced traffic into nav::Engine::enable_landmarks
//     (top-K hubs per family, reported with their views/degree/score
//     blend); --warm N runs one serve::CacheWarmer cycle over the N
//     hottest traced (page, profile) entries and exports the
//     serve.warm.* gauges alongside everything else.
//
//   navsep_stats selftest
//     The reconciliation oracle: after a deterministic run, every
//     registry counter/gauge must equal the per-layer stats() view it
//     mirrors — serve.base.* == unified_stats().base field for field,
//     workload.* counters == WorkloadResult, engine.server.base.* /
//     engine.server.overlay.* == the engine server's unified_stats()
//     field for field, repl.pub.*/repl.rep.* == the publisher's and
//     replica's stats(), serve.warm.* == the CacheWarmer's stats()
//     (with its accounting identity intact), the landmark report must
//     rank real authored hubs, and the JSON exporter's digits must
//     match the live values. build.plans must stay flat across a burst
//     of retitles (the build graph reuses its plan) and rise on an
//     add_node. Exit status is the verdict.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/navigation_aspect.hpp"
#include "hypermedia/context.hpp"
#include "nav/landmarks.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "serve/cache_warmer.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/workload.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace repl = navsep::repl;
namespace serve = navsep::serve;

int usage() {
  std::fprintf(
      stderr,
      "usage: navsep_stats run [--paintings N] [--profiles P] [--threads T]\n"
      "                    [--steps S] [--shards K] [--seed X]\n"
      "                    [--trace off|sampled|full] [--repl]\n"
      "                    [--landmarks K] [--warm N]\n"
      "                    [--format json|table] [--out PATH]\n"
      "       navsep_stats selftest\n");
  return 2;
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

bool arg_flag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

std::unique_ptr<nav::Engine> museum_engine(std::size_t paintings,
                                           std::size_t profiles) {
  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 4,
                        .paintings_per_painter = paintings / 4 + 1,
                        .movements = 3,
                        .seed = 42})
                    .access(AccessStructureKind::IndexedGuidedTour)
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();
  static const std::vector<std::vector<std::string>> kSubsets{
      {"ByAuthor"}, {"ByMovement"}, {"ByAuthor", "ByMovement"}, {}};
  for (std::size_t i = 0; i < profiles; ++i) {
    engine->register_profile(
        {"profile-" + std::to_string(i), kSubsets[i % kSubsets.size()]});
  }
  return engine;
}

void rotate_first_context(hm::ContextFamily& family) {
  std::vector<hm::NavigationalContext> contexts = family.contexts();
  if (contexts.empty() || contexts.front().size() < 2) return;
  std::vector<std::string> ids = contexts.front().node_ids();
  std::rotate(ids.begin(), ids.begin() + 1, ids.end());
  contexts.front() = hm::NavigationalContext(
      contexts.front().family(), contexts.front().name(), std::move(ids));
  family.replace_contexts(std::move(contexts));
}

struct RunConfig {
  std::size_t paintings = 16;
  std::size_t profiles = 2;
  std::size_t threads = 4;
  std::size_t steps = 256;
  std::size_t shards = 4;
  std::uint64_t seed = 42;
  obs::TraceConfig trace;       // off unless --trace sampled|full
  bool with_repl = false;       // loopback publisher + replica leg
  std::size_t landmark_top_k = 0;  // 0 = landmark synthesis off
  std::size_t warm_top_n = 0;      // 0 = cache warming off
};

struct RunOutput {
  std::shared_ptr<obs::Registry> registry;
  serve::WorkloadResult workload;
  serve::ConcurrentServer::UnifiedStats unified;
  serve::ConcurrentServer::UnifiedStats engine_server;
  std::uint64_t store_epoch = 0;
  repl::Publisher::Stats pub;       // zeroed unless with_repl
  repl::ReplicaStats rep;           // zeroed unless with_repl
  /// Per landmark family: its ranked picks (views/degree/score blend).
  std::vector<std::pair<std::string, std::vector<nav::LandmarkScore>>>
      landmarks;
  serve::CacheWarmer::WarmStats warm;  // zeroed unless warm_top_n > 0
  bool site_has_landmark_artifact = false;
  obs::Registry::Snapshot snapshot;
};

/// One fully-wired run: every producer registered into one registry,
/// traffic + a few edits driven through, final stats captured in the
/// same quiescent moment as the registry snapshot (so the selftest can
/// demand exact equality, not approximation).
RunOutput drive(const RunConfig& config) {
  RunOutput out;
  out.registry = std::make_shared<obs::Registry>();

  auto engine = museum_engine(config.paintings, config.profiles);
  engine->attach_telemetry(out.registry);
  auto server = engine->open_concurrent(config.shards);
  obs::SamplerHandle server_metrics =
      server->register_metrics(out.registry);

  std::unique_ptr<repl::Publisher> publisher;
  std::unique_ptr<repl::Replica> replica;
  if (config.with_repl) {
    repl::PublisherOptions popts;
    popts.telemetry = out.registry;
    publisher = engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0),
                                       popts);
    replica = std::make_unique<repl::Replica>(
        repl::Connection::connect(publisher->endpoint()));
    replica->attach_telemetry(out.registry);
    replica->start();
  }

  // The engine's own session walks the start of the tour first, so
  // engine.server.* has traffic to report: its GETs, plus the re-read of
  // the current page after each edit below.
  nav::Navigating& session = engine->navigator();
  if (session.navigate(navsep::core::default_href_for(
          engine->structure().members().front().node_id))) {
    for (int i = 0; i < 3; ++i) (void)session.follow_role("next");
  }

  // A few edits before the traffic so the pipeline spans (build.plan /
  // build.publish / repl.encode...) have epochs to correlate.
  for (int i = 0; i < 3; ++i) {
    (void)engine->edit_context_family("ByAuthor", rotate_first_context);
  }

  serve::Workload workload(*engine);
  serve::WorkloadOptions options;
  options.threads = config.threads;
  options.steps_per_session = config.steps;
  options.seed = config.seed;
  options.trace = config.trace;
  options.telemetry = out.registry;
  out.workload = workload.run(*server, options);

  // Traffic intelligence: fold the traced popularity tables back into
  // the engine (landmark synthesis) and the server (cache warming).
  if (config.landmark_top_k > 0) {
    (void)engine->enable_landmarks(out.workload.traces,
                                   {.top_k = config.landmark_top_k});
    for (const std::string& name : engine->landmark_families()) {
      out.landmarks.emplace_back(name,
                                 engine->landmark_picks(name));
    }
    out.site_has_landmark_artifact =
        engine->site().get("links-landmarks.xml") != nullptr;
  }
  std::unique_ptr<serve::CacheWarmer> warmer;
  obs::SamplerHandle warm_metrics;
  if (config.warm_top_n > 0) {
    warmer = std::make_unique<serve::CacheWarmer>(
        *server, serve::CacheWarmer::Options{.top_n = config.warm_top_n});
    warmer->set_feed(out.workload.traces.top_entries(config.warm_top_n));
    out.warm = warmer->warm_now();
    warm_metrics = warmer->register_metrics(out.registry);
  }

  if (config.with_repl) {
    const std::uint64_t target = engine->snapshots().epoch();
    (void)replica->wait_for_epoch(target, std::chrono::seconds(30));
    replica->stop();
    out.pub = publisher->stats();
    out.rep = replica->stats();
  }

  out.unified = server->unified_stats();
  out.engine_server = engine->server().unified_stats();
  out.store_epoch = engine->snapshots().epoch();
  out.snapshot = out.registry->snapshot();

  // The publisher/replica must outlive the snapshot (their samplers
  // feed it); teardown order past here is free.
  return out;
}

/// Append the trace popularity tables to a JSON export — the registry
/// snapshot carries scalars; the per-page/per-arc tables ride along so
/// one document feeds a dashboard.
std::string export_json(const RunOutput& out) {
  std::string json = out.snapshot.to_json();
  // Splice the trace tables in before the final closing brace.
  const std::size_t brace = json.rfind('}');
  std::string extra = ",\n  \"traces\": {\"events\": " +
                      std::to_string(out.workload.traces.events) +
                      ", \"failures\": " +
                      std::to_string(out.workload.traces.failures) +
                      ", \"top_pages\": [";
  bool first = true;
  for (const auto& [page, hits] : out.workload.traces.top_pages(10)) {
    extra += first ? "\n    " : ",\n    ";
    extra += "{\"page\": \"" + page + "\", \"views\": " +
             std::to_string(hits) + "}";
    first = false;
  }
  extra += first ? "]}" : "\n  ]}";
  if (!out.landmarks.empty()) {
    extra += ",\n  \"landmarks\": [";
    bool first_family = true;
    for (const auto& [family, picks] : out.landmarks) {
      extra += first_family ? "\n    " : ",\n    ";
      extra += "{\"family\": \"" + family + "\", \"picks\": [";
      bool first_pick = true;
      for (const nav::LandmarkScore& pick : picks) {
        extra += first_pick ? "" : ", ";
        extra += "{\"node\": \"" + pick.node_id +
                 "\", \"views\": " + std::to_string(pick.views) +
                 ", \"degree\": " + std::to_string(pick.degree) + "}";
        first_pick = false;
      }
      extra += "]}";
      first_family = false;
    }
    extra += "\n  ]";
  }
  extra += "\n";
  return json.substr(0, brace) + extra + "}\n";
}

int run_mode(int argc, char** argv) {
  RunConfig config;
  config.paintings =
      static_cast<std::size_t>(arg_value(argc, argv, "--paintings", 16));
  config.profiles =
      static_cast<std::size_t>(arg_value(argc, argv, "--profiles", 2));
  config.threads =
      static_cast<std::size_t>(arg_value(argc, argv, "--threads", 4));
  config.steps = static_cast<std::size_t>(arg_value(argc, argv, "--steps", 256));
  config.shards =
      static_cast<std::size_t>(arg_value(argc, argv, "--shards", 4));
  config.seed = static_cast<std::uint64_t>(arg_value(argc, argv, "--seed", 42));
  config.with_repl = arg_flag(argc, argv, "--repl");
  config.landmark_top_k =
      static_cast<std::size_t>(arg_value(argc, argv, "--landmarks", 0));
  config.warm_top_n =
      static_cast<std::size_t>(arg_value(argc, argv, "--warm", 0));
  const std::string trace = arg_string(argc, argv, "--trace", "sampled");
  if (trace == "full") {
    config.trace = {.enabled = true, .sample_every = 1, .ring_capacity = 4096};
  } else if (trace == "sampled") {
    config.trace = {.enabled = true, .sample_every = 16,
                    .ring_capacity = 1024};
  } else if (trace != "off") {
    return usage();
  }

  const RunOutput out = drive(config);

  const std::string format = arg_string(argc, argv, "--format", "table");
  std::string rendered;
  if (format == "json") {
    rendered = export_json(out);
  } else if (format == "table") {
    rendered = out.snapshot.to_table();
    if (out.workload.traces.events > 0) {
      rendered += "top pages (traced views)\n";
      for (const auto& [page, hits] : out.workload.traces.top_pages(10)) {
        rendered += "  " + page + "  " + std::to_string(hits) + "\n";
      }
    }
    for (const auto& [family, picks] : out.landmarks) {
      rendered += "landmarks: " + family + " (views x degree blend)\n";
      for (const nav::LandmarkScore& pick : picks) {
        rendered += "  " + pick.node_id + "  views=" +
                    std::to_string(pick.views) + "  degree=" +
                    std::to_string(pick.degree) + "\n";
      }
    }
  } else {
    return usage();
  }

  const char* out_path = arg_string(argc, argv, "--out", nullptr);
  if (out_path != nullptr) {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    file << rendered;
    std::printf("wrote %s\n", out_path);
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return 0;
}

// --- selftest -----------------------------------------------------------------

int failures = 0;

#define CHECK_EQ(a, b)                                                       \
  do {                                                                       \
    const unsigned long long va = static_cast<unsigned long long>(a);        \
    const unsigned long long vb = static_cast<unsigned long long>(b);        \
    if (va != vb) {                                                          \
      std::fprintf(stderr, "selftest: %s (%llu) != %s (%llu)\n", #a, va, #b, \
                   vb);                                                      \
      ++failures;                                                            \
    }                                                                        \
  } while (0)

/// One layer's gauges against its LayerStats, field for field.
void check_layer(const obs::Registry::Snapshot& snap, const std::string& prefix,
                 const serve::ConcurrentServer::LayerStats& layer) {
  const auto gauge = [&](const std::string& name) -> std::uint64_t {
    auto it = snap.gauges.find(prefix + name);
    if (it == snap.gauges.end()) {
      std::fprintf(stderr, "selftest: gauge %s%s missing\n", prefix.c_str(),
                   name.c_str());
      ++failures;
      return ~0ull;
    }
    return static_cast<std::uint64_t>(it->second);
  };
  CHECK_EQ(gauge(".requests"), layer.requests);
  CHECK_EQ(gauge(".hits"), layer.hits);
  CHECK_EQ(gauge(".resolves"), layer.resolves);
  CHECK_EQ(gauge(".stale_refills"), layer.stale_refills);
  CHECK_EQ(gauge(".not_found"), layer.not_found);
  CHECK_EQ(gauge(".entries"), layer.entries);
  CHECK_EQ(gauge(".inserted"), layer.inserted);
  CHECK_EQ(gauge(".evicted"), layer.evicted);
  CHECK_EQ(gauge(".resident_bytes"), layer.resident_bytes);
}

/// The digits the JSON exporter printed for `name`, parsed back out —
/// the export must carry the same values the live structs report.
std::uint64_t json_value(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) {
    std::fprintf(stderr, "selftest: %s missing from JSON export\n",
                 name.c_str());
    ++failures;
    return ~0ull;
  }
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/// build.plans counts plans computed: a burst of retitles moves no
/// topology, so it must leave the counter flat while build.runs rises;
/// an add_node adds a page (new nodes), so it must raise it.
void check_plan_reuse() {
  auto registry = std::make_shared<obs::Registry>();
  auto engine = museum_engine(8, 0);
  engine->attach_telemetry(registry);
  const obs::Counter& plans = registry->counter("build.plans");
  const obs::Counter& runs = registry->counter("build.runs");
  const std::string member = engine->structure().members().front().node_id;
  const std::uint64_t plans_before = plans.value();
  const std::uint64_t runs_before = runs.value();
  for (int i = 0; i < 4; ++i) {
    (void)engine->retitle_node(member, "Retitled " + std::to_string(i));
  }
  CHECK_EQ(plans.value(), plans_before);
  CHECK_EQ(runs.value(), runs_before + 4);
  const auto painters = engine->navigation().nodes_of("PainterNode");
  if (painters.empty()) {
    std::fprintf(stderr, "selftest: no painter node to add\n");
    ++failures;
    return;
  }
  (void)engine->add_node(painters.front()->id());
  if (plans.value() <= plans_before) {
    std::fprintf(stderr, "selftest: add_node did not replan (build.plans "
                         "stayed at %llu)\n",
                 static_cast<unsigned long long>(plans.value()));
    ++failures;
  }
}

int run_selftest() {
  check_plan_reuse();

  RunConfig config;
  config.paintings = 8;
  config.threads = 4;
  config.steps = 96;
  config.trace = {.enabled = true, .sample_every = 2, .ring_capacity = 256};
  config.with_repl = true;
  config.landmark_top_k = 3;
  config.warm_top_n = 8;
  const RunOutput out = drive(config);
  const obs::Registry::Snapshot& snap = out.snapshot;

  // Workload counters == the WorkloadResult the run returned.
  CHECK_EQ(snap.counters.at("workload.sessions"), out.workload.sessions);
  CHECK_EQ(snap.counters.at("workload.steps"), out.workload.steps);
  CHECK_EQ(snap.counters.at("workload.requests"), out.workload.requests);
  CHECK_EQ(snap.counters.at("workload.failures"), out.workload.failures);
  CHECK_EQ(snap.counters.at("workload.traces.recorded"),
           out.workload.traces.recorded);
  CHECK_EQ(snap.histograms.at("workload.latency").count,
           out.workload.latency.count);

  // serve.base.* / serve.overlay.* gauges == unified_stats(), field for
  // field, both layers.
  check_layer(snap, "serve.base", out.unified.base);
  check_layer(snap, "serve.overlay", out.unified.overlay);
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("serve.epoch")),
           out.unified.epoch);

  // The engine's own server: engine.server.base.* / .overlay.* ==
  // engine->server().unified_stats(), field for field, plus the store.
  check_layer(snap, "engine.server.base", out.engine_server.base);
  check_layer(snap, "engine.server.overlay", out.engine_server.overlay);
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("engine.server.epoch")),
           out.engine_server.epoch);
  if (out.engine_server.base.requests == 0) {
    std::fprintf(stderr, "selftest: the engine's server saw no traffic\n");
    ++failures;
  }
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("store.epoch")),
           out.store_epoch);

  // Replication leg: publisher/replica samplers mirror their stats().
  CHECK_EQ(
      static_cast<std::uint64_t>(snap.gauges.at("repl.pub.full_frames")),
      out.pub.full_frames);
  CHECK_EQ(
      static_cast<std::uint64_t>(snap.gauges.at("repl.pub.delta_frames")),
      out.pub.delta_frames);
  CHECK_EQ(
      static_cast<std::uint64_t>(snap.gauges.at("repl.rep.frames_applied")),
      out.rep.frames_applied);
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("repl.rep.epoch")),
           out.rep.epoch);
  // The replica followed the origin all the way.
  CHECK_EQ(out.rep.epoch, out.store_epoch);

  // Landmark report: the traced traffic must have crowned real hubs,
  // ranked within the requested top-K, and the synthesized access
  // structure must exist as an authored site artifact.
  if (out.landmarks.empty()) {
    std::fprintf(stderr, "selftest: no landmark families reported\n");
    ++failures;
  }
  for (const auto& [family, picks] : out.landmarks) {
    if (picks.empty() || picks.size() > 3) {
      std::fprintf(stderr, "selftest: %s reported %zu picks (want 1..3)\n",
                   family.c_str(), picks.size());
      ++failures;
    }
    for (std::size_t i = 1; i < picks.size(); ++i) {
      if (picks[i - 1].score < picks[i].score) {
        std::fprintf(stderr, "selftest: %s picks not ranked\n",
                     family.c_str());
        ++failures;
      }
    }
  }
  if (!out.site_has_landmark_artifact) {
    std::fprintf(stderr,
                 "selftest: links-landmarks.xml missing from the site\n");
    ++failures;
  }

  // Cache warming: the serve.warm.* gauges mirror the warmer's stats()
  // and the outcome accounting reconciles exactly.
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("serve.warm.cycles")),
           out.warm.cycles);
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("serve.warm.attempted")),
           out.warm.attempted);
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("serve.warm.warmed")),
           out.warm.warmed);
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("serve.warm.no_room")),
           out.warm.no_room);
  CHECK_EQ(static_cast<std::uint64_t>(snap.gauges.at("serve.warm.not_found")),
           out.warm.not_found);
  CHECK_EQ(out.warm.attempted, out.warm.warmed + out.warm.already_hot +
                                   out.warm.no_room + out.warm.not_found);
  if (out.warm.cycles != 1 || out.warm.attempted == 0) {
    std::fprintf(stderr, "selftest: warm cycle empty (attempted=%llu)\n",
                 static_cast<unsigned long long>(out.warm.attempted));
    ++failures;
  }

  // The JSON export carries the same digits as the live structs.
  const std::string json = export_json(out);
  CHECK_EQ(json_value(json, "workload.requests"), out.workload.requests);
  CHECK_EQ(json_value(json, "serve.base.requests"),
           out.unified.base.requests);
  CHECK_EQ(json_value(json, "serve.overlay.requests"),
           out.unified.overlay.requests);
  CHECK_EQ(json_value(json, "repl.rep.frames_applied"),
           out.rep.frames_applied);
  CHECK_EQ(json_value(json, "serve.warm.warmed"), out.warm.warmed);
  if (json.find("\"landmarks\": [") == std::string::npos) {
    std::fprintf(stderr, "selftest: landmark report missing from JSON\n");
    ++failures;
  }

  // And the run actually observed things worth exporting.
  if (out.workload.requests == 0 || out.workload.traces.events == 0 ||
      snap.spans_recorded == 0) {
    std::fprintf(stderr,
                 "selftest: empty run (requests=%zu traces=%llu spans=%llu)\n",
                 out.workload.requests,
                 static_cast<unsigned long long>(out.workload.traces.events),
                 static_cast<unsigned long long>(snap.spans_recorded));
    ++failures;
  }

  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d reconciliation failure(s)\n", failures);
    return 1;
  }
  std::printf(
      "selftest: OK — %zu requests, %llu traced events, %llu spans; registry "
      "reconciles with every per-layer stats() view\n",
      out.workload.requests,
      static_cast<unsigned long long>(out.workload.traces.events),
      static_cast<unsigned long long>(snap.spans_recorded));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "run") == 0) return run_mode(argc, argv);
    if (std::strcmp(argv[1], "selftest") == 0) return run_selftest();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "navsep_stats: %s\n", e.what());
    return 1;
  }
  return usage();
}
