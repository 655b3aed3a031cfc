// E11 — traffic intelligence: landmark synthesis + predictive warming.
//
// Two questions, one driver. (1) Correctness gate: feeding a traced
// popularity table into nav::Engine::enable_landmarks must author a
// landmark access structure that is byte-identical to what a full
// single-threaded build producing the same ranked family would author
// — the incremental pipeline may not be a second dialect. (2) The
// economics of warming: every publication stales the base layer and
// retires the touched overlay slices, so the first organic requests
// after an epoch pay renders. A serve::CacheWarmer fed the same traced
// heat pre-renders those entries before traffic arrives; the
// experiment measures the cold-after-epoch window (the first W
// requests after each publication) with warming off vs on, over the
// same deterministic Zipf-skewed schedule, and reports hit ratios and
// latency quantiles per mode. Warming on must win both strictly:
// higher hit ratios in the window, lower p99.
//
// Self-contained driver (no google-benchmark): emits BENCH_e11.json.
//
//   e11_traffic_intelligence [--quick] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "obs/trace.hpp"
#include "serve/cache_warmer.hpp"
#include "serve/concurrent_server.hpp"
#include "site/virtual_site.hpp"

namespace {

using navsep::Rng;
using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace serve = navsep::serve;
namespace site = navsep::site;

constexpr std::size_t kShards = 4;

std::unique_ptr<nav::Engine> museum_engine(std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 4,
                                                .paintings_per_painter =
                                                    paintings / 4 + 1,
                                                .movements = 3,
                                                .seed = 42})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

std::vector<std::string> html_pages(const nav::Engine& engine) {
  std::vector<std::string> pages;
  for (const std::string& path : engine.site().paths()) {
    if (path.size() > 5 && path.rfind(".html") == path.size() - 5) {
      pages.push_back(path);
    }
  }
  return pages;
}

/// The landmark byte-identity gate's ground truth, independent of the
/// incremental pipeline: a full single-threaded build handed every
/// authored family PLUS the engine's ranked landmark families (the
/// tests/oracle.cpp full-build oracle, restated — benches do not link
/// the gtest support library).
site::VirtualSite full_build_oracle(const nav::Engine& engine) {
  site::SiteBuildOptions options;
  options.site_base = engine.server().base();
  for (const auto& family : engine.context_families()) {
    options.context_families.push_back(&family);
  }
  std::vector<hm::ContextFamily> generated;
  for (const nav::RouteProgram& program : engine.routes()) {
    if (program.compile != nav::RouteCompile::Aot) continue;
    generated.push_back(engine.route_family(program.name));
  }
  for (const std::string& name : engine.landmark_families()) {
    generated.push_back(engine.landmark_family(name));
  }
  for (const auto& family : generated) {
    options.context_families.push_back(&family);
  }
  auto snapshot =
      hm::MaterializedStructure::snapshot(engine.structure());
  return site::build_separated_site(engine.world(), *snapshot, options);
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

/// The Zipf-skewed request schedule: page rank r appears ~1/(r+1) as
/// often as rank 0, deterministically shuffled. The same schedule
/// drives the tracing phase, the feed, and both measured windows.
std::vector<std::size_t> zipf_schedule(std::size_t pages, std::size_t length,
                                       Rng& rng) {
  std::vector<std::size_t> pool;
  for (std::size_t rank = 0; rank < pages; ++rank) {
    const std::size_t copies = std::max<std::size_t>(1, 24 / (rank + 1));
    for (std::size_t c = 0; c < copies; ++c) pool.push_back(rank);
  }
  std::vector<std::size_t> schedule;
  schedule.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    schedule.push_back(pool[static_cast<std::size_t>(rng.below(pool.size()))]);
  }
  return schedule;
}

struct WindowRecord {
  bool warming = false;
  std::size_t epochs = 0;
  std::size_t requests = 0;       ///< total requests across all windows
  double base_hit_ratio = 0.0;    ///< window-only, base layer
  double overlay_hit_ratio = 0.0; ///< window-only, overlay layer
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  serve::CacheWarmer::WarmStats warm;  // zeroed when warming == false
};

struct LandmarkRecord {
  std::size_t families = 0;
  std::size_t picks = 0;
  std::size_t artifacts = 0;        ///< links-landmarks*.xml files authored
  bool byte_identical = false;      ///< incremental == full-build oracle
};

std::uint64_t quantile(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t at = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[at];
}

/// One measured mode: fresh engine + server, traced warm-up traffic,
/// then `epochs` publish→window cycles. With warming on, one
/// CacheWarmer cycle runs between the publication and the window —
/// the lane's steady state, made deterministic for measurement.
WindowRecord run_mode(bool warming, std::size_t paintings,
                      std::size_t epochs, std::size_t window,
                      const obs::TraceAggregate& traffic) {
  auto engine = museum_engine(paintings);
  const nav::Profile tour{"tour", {"ByAuthor"}};
  engine->register_profile(tour);
  auto server = engine->open_concurrent(kShards);
  const std::vector<std::string> pages = html_pages(*engine);

  Rng rng(4242);
  const std::vector<std::size_t> schedule =
      zipf_schedule(pages.size(), window, rng);

  std::unique_ptr<serve::CacheWarmer> warmer;
  if (warming) {
    warmer = std::make_unique<serve::CacheWarmer>(
        *server,
        serve::CacheWarmer::Options{.top_n = pages.size() * 2});
    warmer->set_feed(traffic.top_entries(pages.size() * 2));
  }

  // Pre-window traffic so both modes enter the first epoch with the
  // same organically-earned cache population.
  for (std::size_t i = 0; i < window; ++i) {
    (void)server->get(pages[schedule[i]]);
    (void)server->get(pages[schedule[i]], tour.name);
  }

  WindowRecord record;
  record.warming = warming;
  record.epochs = epochs;
  std::vector<std::uint64_t> latencies;
  std::size_t base_hits = 0, base_requests = 0;
  std::size_t overlay_hits = 0, overlay_requests = 0;

  const std::vector<hm::Member> members = engine->structure().members();
  for (std::size_t e = 0; e < epochs; ++e) {
    // The publication: one retitle (stales the base layer, moves the
    // touched pages' overlay validity) + one tour rotation (moves the
    // ByAuthor slices).
    const hm::Member& victim = members[e % members.size()];
    (void)engine->retitle_node(
        victim.node_id, victim.title + " e" + std::to_string(e));
    (void)engine->edit_context_family("ByAuthor", rotate_first_context);
    if (warming) (void)warmer->warm_now();

    // The cold-after-epoch window: the same skewed schedule, timed.
    const serve::ConcurrentServer::UnifiedStats pre = server->unified_stats();
    for (std::size_t i = 0; i < window; ++i) {
      const std::string& page = pages[schedule[i]];
      const auto t0 = std::chrono::steady_clock::now();
      (void)server->get(page);
      (void)server->get(page, tour.name);
      const auto t1 = std::chrono::steady_clock::now();
      latencies.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      record.requests += 2;
    }
    const serve::ConcurrentServer::UnifiedStats post = server->unified_stats();
    base_hits += post.base.hits - pre.base.hits;
    base_requests += post.base.requests - pre.base.requests;
    overlay_hits += post.overlay.hits - pre.overlay.hits;
    overlay_requests += post.overlay.requests - pre.overlay.requests;
  }

  std::sort(latencies.begin(), latencies.end());
  record.p50_ns = quantile(latencies, 0.50);
  record.p99_ns = quantile(latencies, 0.99);
  record.base_hit_ratio =
      base_requests == 0
          ? 0.0
          : static_cast<double>(base_hits) / static_cast<double>(base_requests);
  record.overlay_hit_ratio = overlay_requests == 0
                                 ? 0.0
                                 : static_cast<double>(overlay_hits) /
                                       static_cast<double>(overlay_requests);
  if (warming) record.warm = warmer->stats();
  return record;
}

/// The tracing phase: drive the schedule once through a throwaway
/// server, folding what was requested into the popularity tables the
/// landmark scorer and the warmer both consume.
obs::TraceAggregate trace_traffic(std::size_t paintings, std::size_t steps) {
  auto engine = museum_engine(paintings);
  const nav::Profile tour{"tour", {"ByAuthor"}};
  engine->register_profile(tour);
  auto server = engine->open_concurrent(kShards);
  const std::vector<std::string> pages = html_pages(*engine);

  Rng rng(4242);
  const std::vector<std::size_t> schedule =
      zipf_schedule(pages.size(), steps, rng);
  obs::TraceAggregate traffic;
  for (std::size_t rank : schedule) {
    const std::string& page = pages[rank];
    if (server->get(page).ok()) {
      ++traffic.page_views[page];
      ++traffic.events;
    }
    if (server->get(page, tour.name).ok()) {
      ++traffic.page_views[page];
      ++traffic.profile_page_views[{tour.name, page}];
      ++traffic.events;
    }
  }
  return traffic;
}

/// The landmark gate: enable synthesis from the traced traffic, then
/// demand byte identity between the incremental site (which authored
/// links-landmarks*.xml through the build graph) and the from-scratch
/// oracle handed the same ranked families.
LandmarkRecord landmark_gate(std::size_t paintings,
                             const obs::TraceAggregate& traffic) {
  auto engine = museum_engine(paintings);
  const nav::Profile tour{"tour", {"ByAuthor"}};
  engine->register_profile(tour);
  (void)engine->enable_landmarks(traffic, {.top_k = 4, .per_profile = true});

  LandmarkRecord record;
  for (const std::string& name : engine->landmark_families()) {
    ++record.families;
    record.picks += engine->landmark_picks(name).size();
  }
  const site::VirtualSite oracle = full_build_oracle(*engine);
  record.byte_identical = engine->site().paths() == oracle.paths();
  for (const std::string& path : engine->site().paths()) {
    if (path.rfind("links-landmarks", 0) == 0) ++record.artifacts;
    const std::string* got = engine->site().get(path);
    const std::string* want = oracle.get(path);
    if (got == nullptr || want == nullptr || *got != *want) {
      record.byte_identical = false;
    }
  }
  return record;
}

void emit_json(const LandmarkRecord& landmarks,
               const std::vector<WindowRecord>& runs, std::ostream& out) {
  char buffer[64];
  const auto ratio = [&](double v) {
    std::snprintf(buffer, sizeof(buffer), "%.4f", v);
    return std::string(buffer);
  };
  out << "{\n  \"bench\": \"e11_traffic_intelligence\",\n";
  out << "  \"landmarks\": {\n";
  out << "    \"families\": " << landmarks.families << ",\n";
  out << "    \"picks\": " << landmarks.picks << ",\n";
  out << "    \"artifacts\": " << landmarks.artifacts << ",\n";
  out << "    \"byte_identical\": "
      << (landmarks.byte_identical ? "true" : "false") << "\n  },\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WindowRecord& r = runs[i];
    out << "    {\n";
    out << "      \"warming\": " << (r.warming ? "true" : "false") << ",\n";
    out << "      \"epochs\": " << r.epochs << ",\n";
    out << "      \"window_requests\": " << r.requests << ",\n";
    out << "      \"base_hit_ratio\": " << ratio(r.base_hit_ratio) << ",\n";
    out << "      \"overlay_hit_ratio\": " << ratio(r.overlay_hit_ratio)
        << ",\n";
    out << "      \"p50_ns\": " << r.p50_ns << ",\n";
    out << "      \"p99_ns\": " << r.p99_ns << ",\n";
    out << "      \"warm_attempted\": " << r.warm.attempted << ",\n";
    out << "      \"warm_warmed\": " << r.warm.warmed << ",\n";
    out << "      \"warm_already_hot\": " << r.warm.already_hot << ",\n";
    out << "      \"warm_no_room\": " << r.warm.no_room << "\n";
    out << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (runs.size() == 2) {
    out << ",\n  \"delta\": {\n";
    out << "    \"overlay_hit_ratio_gain\": "
        << ratio(runs[1].overlay_hit_ratio - runs[0].overlay_hit_ratio)
        << ",\n";
    out << "    \"base_hit_ratio_gain\": "
        << ratio(runs[1].base_hit_ratio - runs[0].base_hit_ratio) << ",\n";
    out << "    \"p99_speedup\": "
        << ratio(runs[1].p99_ns == 0
                     ? 0.0
                     : static_cast<double>(runs[0].p99_ns) /
                           static_cast<double>(runs[1].p99_ns))
        << "\n  }";
  }
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_e11.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: e11_traffic_intelligence [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::size_t paintings = quick ? 8 : 24;
  const std::size_t trace_steps = quick ? 200 : 2000;
  const std::size_t epochs = quick ? 4 : 16;
  const std::size_t window = quick ? 60 : 200;

  const obs::TraceAggregate traffic = trace_traffic(paintings, trace_steps);

  const LandmarkRecord landmarks = landmark_gate(paintings, traffic);
  std::printf("landmarks: %zu families, %zu picks, %zu artifacts, "
              "byte-identical=%s\n",
              landmarks.families, landmarks.picks, landmarks.artifacts,
              landmarks.byte_identical ? "yes" : "NO");
  if (!landmarks.byte_identical || landmarks.artifacts == 0) {
    std::cerr << "e11: landmark byte-identity gate FAILED\n";
    return 1;
  }

  std::vector<WindowRecord> runs;
  for (const bool warming : {false, true}) {
    WindowRecord r = run_mode(warming, paintings, epochs, window, traffic);
    std::printf(
        "warming=%s -> window base hit %.3f, overlay hit %.3f, "
        "p50 %llu ns, p99 %llu ns (warmed %llu/%llu)\n",
        warming ? "on " : "off", r.base_hit_ratio, r.overlay_hit_ratio,
        static_cast<unsigned long long>(r.p50_ns),
        static_cast<unsigned long long>(r.p99_ns),
        static_cast<unsigned long long>(r.warm.warmed),
        static_cast<unsigned long long>(r.warm.attempted));
    runs.push_back(std::move(r));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  emit_json(landmarks, runs, out);
  std::cout << "wrote " << out_path << " (" << runs.size()
            << " runs + landmark gate)\n";
  return 0;
}
