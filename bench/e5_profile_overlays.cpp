// E5 — profile-scoped navigation overlays under multi-audience traffic.
//
// E4 measured many readers over ONE published site state; this
// experiment adds the personalization dimension the paper's separation
// pays for: P registered nav::Profiles multiply the served navigation
// space (every page now has one navigation block per profile) while base
// pages stay woven once per epoch. The sweep crosses
// profiles × museum size × threads: K ProfileMix sessions fetch through
// ConcurrentServer::get(uri, profile), so every request exercises the
// per-(profile, page) overlay cache layer.
//
// After each traffic run the driver performs ONE context-family edit and
// re-probes every (profile, page) pair, reporting the invalidation
// asymmetry the design promises: zero base pages re-woven
// (RebuildReport.pages_rewoven), and only the entries of profiles that
// include the edited family re-render (overlay_stale_renders vs
// overlay_hits).
//
// Self-contained driver (no google-benchmark): emits BENCH_e5.json, one
// record per sweep cell.
//
//   e5_profile_overlays [--quick] [--out PATH]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/workload.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace serve = navsep::serve;

struct Cell {
  std::size_t profiles = 1;
  std::size_t paintings = 16;
  std::size_t threads = 1;
};

struct Record {
  Cell cell;
  serve::WorkloadResult result;
  serve::ConcurrentServer::UnifiedStats after_traffic;
  // The family-edit invalidation probe.
  std::size_t edit_pages_rewoven = 0;
  std::size_t edit_linkbases_reauthored = 0;
  std::size_t reprobe_hits = 0;           ///< entries that survived the edit
  std::size_t reprobe_stale_renders = 0;  ///< entries the edit retired
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

/// Register `count` profiles cycling the four canonical family subsets.
std::vector<nav::Profile> register_profiles(nav::Engine& engine,
                                            std::size_t count) {
  static const std::vector<std::vector<std::string>> kSubsets{
      {"ByAuthor"}, {"ByMovement"}, {"ByAuthor", "ByMovement"}, {}};
  std::vector<nav::Profile> out;
  for (std::size_t i = 0; i < count; ++i) {
    nav::Profile profile{"profile-" + std::to_string(i),
                         kSubsets[i % kSubsets.size()]};
    engine.internals().register_profile(profile);
    out.push_back(std::move(profile));
  }
  return out;
}

Record run_cell(const Cell& cell, std::size_t steps_per_session) {
  Record record;
  record.cell = cell;

  auto engine = museum_engine(cell.paintings);
  const std::vector<nav::Profile> profiles =
      register_profiles(*engine, cell.profiles);
  serve::Workload workload(*engine);
  auto server = engine->open_concurrent();

  serve::WorkloadOptions options;
  options.threads = cell.threads;
  options.steps_per_session = steps_per_session;
  options.behaviors = {serve::Behavior::ProfileMix};
  record.result = workload.run(*server, options);
  record.after_traffic = server->unified_stats();

  // Warm every (profile, page) pair so the invalidation probe below
  // measures the full overlay space, not whatever traffic happened
  // to touch.
  std::vector<std::string> pages;
  for (const std::string& path : engine->site().paths()) {
    if (path.size() > 5 && path.rfind(".html") == path.size() - 5) {
      pages.push_back(path);
    }
  }
  for (const nav::Profile& profile : profiles) {
    for (const std::string& page : pages) {
      (void)server->get(page, profile.name);
    }
  }
  const serve::ConcurrentServer::UnifiedStats warmed = server->unified_stats();

  // One family edit; the asymmetry counters.
  nav::RebuildReport report = engine->internals().edit_context_family(
      "ByAuthor", [](hm::ContextFamily& family) {
        std::vector<hm::NavigationalContext> contexts = family.contexts();
        if (contexts.empty() || contexts.front().size() < 2) return;
        std::vector<std::string> ids = contexts.front().node_ids();
        std::rotate(ids.begin(), ids.begin() + 1, ids.end());
        contexts.front() = hm::NavigationalContext(
            contexts.front().family(), contexts.front().name(),
            std::move(ids));
        family.replace_contexts(std::move(contexts));
      });
  record.edit_pages_rewoven = report.pages_rewoven;
  record.edit_linkbases_reauthored = report.linkbases_reauthored;

  for (const nav::Profile& profile : profiles) {
    for (const std::string& page : pages) {
      (void)server->get(page, profile.name);
    }
  }
  const serve::ConcurrentServer::UnifiedStats reprobed =
      server->unified_stats();
  record.reprobe_hits = reprobed.overlay.hits - warmed.overlay.hits;
  record.reprobe_stale_renders =
      reprobed.overlay.stale_refills - warmed.overlay.stale_refills;
  return record;
}

void emit_json(const std::vector<Record>& records, std::ostream& out) {
  out << "{\n  \"bench\": \"e5_profile_overlays\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const serve::WorkloadResult& w = r.result;
    char buffer[64];
    out << "    {\n";
    out << "      \"profiles\": " << r.cell.profiles << ",\n";
    out << "      \"paintings\": " << r.cell.paintings << ",\n";
    out << "      \"threads\": " << r.cell.threads << ",\n";
    out << "      \"sessions\": " << w.sessions << ",\n";
    out << "      \"requests\": " << w.requests << ",\n";
    out << "      \"failures\": " << w.failures << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f", w.seconds);
    out << "      \"seconds\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.1f", w.throughput_rps);
    out << "      \"throughput_rps\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.1f", w.latency.mean_ns());
    out << "      \"latency_mean_ns\": " << buffer << ",\n";
    out << "      \"latency_p50_ns\": " << w.latency.quantile_ns(0.5)
        << ",\n";
    out << "      \"latency_p99_ns\": " << w.latency.quantile_ns(0.99)
        << ",\n";
    out << "      \"latency_max_ns\": " << w.latency.max_ns() << ",\n";
    out << "      \"overlay_requests\": " << r.after_traffic.overlay.requests
        << ",\n";
    out << "      \"overlay_hits\": " << r.after_traffic.overlay.hits
        << ",\n";
    out << "      \"overlay_renders\": " << r.after_traffic.overlay.resolves
        << ",\n";
    out << "      \"overlay_entries\": " << r.after_traffic.overlay.entries
        << ",\n";
    out << "      \"edit_pages_rewoven\": " << r.edit_pages_rewoven << ",\n";
    out << "      \"edit_linkbases_reauthored\": "
        << r.edit_linkbases_reauthored << ",\n";
    out << "      \"reprobe_hits\": " << r.reprobe_hits << ",\n";
    out << "      \"reprobe_stale_renders\": " << r.reprobe_stale_renders
        << "\n";
    out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_e5.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: e5_profile_overlays [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> profile_counts =
      quick ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<std::size_t> museum_sizes =
      quick ? std::vector<std::size_t>{8} : std::vector<std::size_t>{16, 128};
  const std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t steps = quick ? 64 : 2048;

  std::vector<Record> records;
  for (std::size_t paintings : museum_sizes) {
    for (std::size_t profiles : profile_counts) {
      for (std::size_t threads : thread_counts) {
        Record r = run_cell(Cell{profiles, paintings, threads}, steps);
        std::printf(
            "profiles=%zu paintings=%zu threads=%zu -> %.0f req/s "
            "(p99 %llu ns, %zu overlay entries; edit: %zu pages rewoven, "
            "%zu entries retired, %zu survived)\n",
            r.cell.profiles, r.cell.paintings, r.cell.threads,
            r.result.throughput_rps,
            static_cast<unsigned long long>(r.result.latency.quantile_ns(0.99)),
            r.after_traffic.overlay.entries, r.edit_pages_rewoven,
            r.reprobe_stale_renders, r.reprobe_hits);
        records.push_back(std::move(r));
      }
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
