// E10 — route programs: lazy vs AOT compilation economics.
//
// PR 9's route programs compile one declarative expression two ways:
// RouteCompile::Aot expands at MUTATION time into an authored
// `links-<name>.xml` through the build graph, RouteCompile::Lazy ships
// only the program text and expands at SERVE time inside the snapshot,
// memoized under slice validity. Same bytes (the differential harness
// pins it — and every cell here re-checks served pages across modes),
// different bill. This experiment itemizes that bill per museum size:
//
//   * registration cost — AOT pays expansion + authoring up front,
//     lazy is a table write;
//   * cold vs warm serve latency — lazy pays expansion on first touch,
//     then both modes serve from the overlay cache;
//   * family-edit churn — alternating expansion-PRESERVING edits (tour
//     rotations: a route's expansion is a reachable SET, so reorders
//     change nothing) with expansion-CHANGING ones (membership drops).
//     AOT pays re-expansion inside every mutation; lazy retires only
//     the cache entries whose expanded slice actually changed, visible
//     as churn_overlay_renders << churn_overlay_hits.
//
// Self-contained driver (no google-benchmark): emits BENCH_e10.json,
// one record per (museum size, compile mode).
//
//   e10_route_programs [--quick] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "nav/route.hpp"
#include "serve/concurrent_server.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace serve = navsep::serve;
namespace site = navsep::site;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Record {
  std::size_t paintings = 0;
  nav::RouteCompile mode = nav::RouteCompile::Aot;
  std::size_t routes = 0;
  std::size_t pages = 0;
  double register_seconds = 0;  ///< registering all routes + the profile
  double cold_seconds = 0;      ///< first pass (lazy expands here)
  double warm_seconds = 0;      ///< second pass (both modes cached)
  std::size_t churn_edits = 0;
  double churn_mutation_seconds = 0;  ///< writer-side edit cost
  double churn_reprobe_seconds = 0;   ///< reader-side re-touch cost
  std::size_t churn_overlay_hits = 0;
  std::size_t churn_overlay_renders = 0;
  std::size_t churn_linkbases_reauthored = 0;
  std::size_t churn_pages_rewoven = 0;
  bool bytes_match_other_mode = false;
};

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

std::vector<nav::RouteProgram> route_programs(nav::RouteCompile mode) {
  return {
      {"authors", "@ByAuthor", mode},
      {"spine", "index-entry / next*", mode},
      {"cross", "(@ByAuthor | @ByMovement) / next", mode},
  };
}

/// One edit of the churn phase: even steps rotate the first ByAuthor
/// tour (expansion-preserving — route sets are reorder-invariant), odd
/// steps drop-or-restore its last member (expansion-changing).
nav::RebuildReport churn_edit(nav::Engine& engine, std::size_t step,
                              std::vector<std::string>& parked) {
  return engine.internals().edit_context_family(
      "ByAuthor", [&](hm::ContextFamily& family) {
        std::vector<hm::NavigationalContext> contexts = family.contexts();
        if (contexts.empty()) return;
        std::vector<std::string> ids = contexts.front().node_ids();
        if (step % 2 == 0) {
          if (ids.size() < 2) return;
          std::rotate(ids.begin(), ids.begin() + 1, ids.end());
        } else if (parked.empty()) {
          if (ids.size() < 2) return;
          parked.push_back(ids.back());
          ids.pop_back();
        } else {
          ids.push_back(parked.back());
          parked.pop_back();
        }
        contexts.front() = hm::NavigationalContext(
            contexts.front().family(), contexts.front().name(),
            std::move(ids));
        family.replace_contexts(std::move(contexts));
      });
}

struct ModeRun {
  Record record;
  std::map<std::string, std::string> cold_bytes;  ///< page → served body
};

ModeRun run_mode(nav::RouteCompile mode, std::size_t paintings,
                 std::size_t edits) {
  ModeRun run;
  Record& record = run.record;
  record.paintings = paintings;
  record.mode = mode;
  record.churn_edits = edits;

  auto engine = museum_engine(paintings);

  const auto register_start = Clock::now();
  const std::vector<nav::RouteProgram> programs = route_programs(mode);
  std::vector<std::string> names;
  for (const nav::RouteProgram& program : programs) {
    (void)engine->internals().register_route(program);
    names.push_back(program.name);
  }
  engine->internals().register_profile({"routes", names});
  record.register_seconds = seconds_since(register_start);
  record.routes = programs.size();

  std::vector<std::string> pages;
  for (const std::string& path : engine->site().paths()) {
    if (path.size() > 5 && path.rfind(".html") == path.size() - 5) {
      pages.push_back(path);
    }
  }
  record.pages = pages.size();
  auto server = engine->open_concurrent();

  const auto cold_start = Clock::now();
  for (const std::string& page : pages) {
    site::Response response = server->get(page, "routes");
    if (response.ok()) run.cold_bytes.emplace(page, *response.body);
  }
  record.cold_seconds = seconds_since(cold_start);

  const auto warm_start = Clock::now();
  for (const std::string& page : pages) (void)server->get(page, "routes");
  record.warm_seconds = seconds_since(warm_start);

  const serve::ConcurrentServer::UnifiedStats warmed = server->unified_stats();
  std::vector<std::string> parked;
  for (std::size_t e = 0; e < edits; ++e) {
    const auto edit_start = Clock::now();
    nav::RebuildReport report = churn_edit(*engine, e, parked);
    record.churn_mutation_seconds += seconds_since(edit_start);
    record.churn_linkbases_reauthored += report.linkbases_reauthored;
    record.churn_pages_rewoven += report.pages_rewoven;

    const auto reprobe_start = Clock::now();
    for (const std::string& page : pages) (void)server->get(page, "routes");
    record.churn_reprobe_seconds += seconds_since(reprobe_start);
  }
  const serve::ConcurrentServer::UnifiedStats churned = server->unified_stats();
  record.churn_overlay_hits = churned.overlay.hits - warmed.overlay.hits;
  record.churn_overlay_renders =
      churned.overlay.resolves - warmed.overlay.resolves;
  return run;
}

void emit_json(const std::vector<Record>& records, std::ostream& out) {
  out << "{\n  \"bench\": \"e10_route_programs\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    char buffer[64];
    out << "    {\n";
    out << "      \"paintings\": " << r.paintings << ",\n";
    out << "      \"mode\": \""
        << (r.mode == nav::RouteCompile::Aot ? "aot" : "lazy") << "\",\n";
    out << "      \"routes\": " << r.routes << ",\n";
    out << "      \"pages\": " << r.pages << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f", r.register_seconds);
    out << "      \"register_seconds\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f", r.cold_seconds);
    out << "      \"cold_pass_seconds\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f", r.warm_seconds);
    out << "      \"warm_pass_seconds\": " << buffer << ",\n";
    out << "      \"churn_edits\": " << r.churn_edits << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f", r.churn_mutation_seconds);
    out << "      \"churn_mutation_seconds\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f", r.churn_reprobe_seconds);
    out << "      \"churn_reprobe_seconds\": " << buffer << ",\n";
    out << "      \"churn_overlay_hits\": " << r.churn_overlay_hits << ",\n";
    out << "      \"churn_overlay_renders\": " << r.churn_overlay_renders
        << ",\n";
    out << "      \"churn_linkbases_reauthored\": "
        << r.churn_linkbases_reauthored << ",\n";
    out << "      \"churn_pages_rewoven\": " << r.churn_pages_rewoven
        << ",\n";
    out << "      \"bytes_match_other_mode\": "
        << (r.bytes_match_other_mode ? "true" : "false") << "\n";
    out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_e10.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: e10_route_programs [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> museum_sizes =
      quick ? std::vector<std::size_t>{8}
            : std::vector<std::size_t>{16, 64, 128};
  const std::size_t edits = quick ? 4 : 20;

  std::vector<Record> records;
  for (std::size_t paintings : museum_sizes) {
    ModeRun aot = run_mode(nav::RouteCompile::Aot, paintings, edits);
    ModeRun lazy = run_mode(nav::RouteCompile::Lazy, paintings, edits);
    // The differential backstop, in the bench itself: both modes must
    // have served identical bytes for every page on the cold pass.
    const bool identical = aot.cold_bytes == lazy.cold_bytes;
    aot.record.bytes_match_other_mode = identical;
    lazy.record.bytes_match_other_mode = identical;
    if (!identical) {
      std::cerr << "FATAL: lazy and AOT served different bytes at paintings="
                << paintings << "\n";
      return 1;
    }
    for (ModeRun* run : {&aot, &lazy}) {
      const Record& r = run->record;
      std::printf(
          "paintings=%zu mode=%s -> register %.3fms, cold %.3fms, warm "
          "%.3fms; churn(%zu edits): mutate %.3fms, reprobe %.3fms, "
          "%zu hits / %zu renders, %zu linkbases reauthored\n",
          r.paintings, r.mode == nav::RouteCompile::Aot ? "aot" : "lazy",
          r.register_seconds * 1e3, r.cold_seconds * 1e3,
          r.warm_seconds * 1e3, r.churn_edits,
          r.churn_mutation_seconds * 1e3, r.churn_reprobe_seconds * 1e3,
          r.churn_overlay_hits, r.churn_overlay_renders,
          r.churn_linkbases_reauthored);
      records.push_back(run->record);
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  emit_json(records, out);
  std::cout << "wrote " << out_path << " (" << records.size() << " runs)\n";
  return 0;
}
