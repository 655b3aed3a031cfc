// E6 — cache economics of the bounded, slice-validated serve layers.
//
// E5 showed profiles multiply the overlay space while base pages stay
// woven once; this experiment prices the cache that makes that fast.
// The sweep crosses cap-per-shard × registered profiles × edit rate:
// a deterministic single-threaded driver issues base and profile-scoped
// GETs over random (page, profile) pairs through a
// serve::ConcurrentServer opened with serve::CacheLimits, while
// edit_context_family fires at the configured rate. Reported per cell:
// hit ratios and the residency ledger (inserted == resident + evicted)
// of BOTH layers — bounded caches must hold ≤ cap × shards entries no
// matter the churn.
//
// After the traffic run the driver warms every (profile, page) pair,
// performs ONE family edit touching a single context, and re-probes
// every pair, classifying each page as touched (its served bytes
// changed) or untouched. The asymmetry the slice-precise validity buys:
// untouched pairs are retained (hits) and touched pairs are retired
// (stale re-renders) — under a tight cap, retention additionally decays
// to whatever the LRU kept, which is the economics the sweep exposes.
//
// Self-contained driver (no google-benchmark): emits BENCH_e6.json.
//
//   e6_cache_economics [--quick] [--out PATH]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "serve/concurrent_server.hpp"
#include "site/virtual_site.hpp"

namespace {

using navsep::Rng;
using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace serve = navsep::serve;
namespace site = navsep::site;

constexpr std::size_t kShards = 4;

struct Cell {
  std::size_t cap = serve::CacheLimits::kUnbounded;  ///< per shard, both layers
  std::size_t profiles = 2;
  std::size_t edits_per_1k = 0;  ///< family edits per 1000 traffic steps
  std::size_t paintings = 16;
};

struct Record {
  Cell cell;
  std::size_t requests = 0;
  serve::ConcurrentServer::UnifiedStats after_traffic;
  // The one-edit asymmetry probe over every (profile, page) pair.
  std::size_t pairs = 0;
  std::size_t touched_pairs = 0;  ///< pairs whose served bytes the edit changed
  std::size_t touched_retired = 0;     ///< touched pairs re-rendered as stale
  std::size_t touched_retained = 0;    ///< touched pairs wrongly kept (must be 0)
  std::size_t untouched_retained = 0;  ///< untouched pairs still hitting
  std::size_t untouched_rendered = 0;  ///< untouched pairs lost (evicted/stale)
  std::size_t edit_pages_rewoven = 0;
  std::size_t edit_linkbases_reauthored = 0;
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

std::vector<nav::Profile> register_profiles(nav::Engine& engine,
                                            std::size_t count) {
  static const std::vector<std::vector<std::string>> kSubsets{
      {"ByAuthor"}, {"ByMovement"}, {"ByAuthor", "ByMovement"}, {}};
  std::vector<nav::Profile> out;
  for (std::size_t i = 0; i < count; ++i) {
    nav::Profile profile{"profile-" + std::to_string(i),
                         kSubsets[i % kSubsets.size()]};
    engine.register_profile(profile);
    out.push_back(std::move(profile));
  }
  return out;
}

/// Post-edit ground truth for the asymmetry probe, independent of the
/// serving path under test: a full single-threaded build weaving only
/// `profile`'s families, as path -> bytes (the tests/oracle.cpp oracle,
/// restated here — benches do not link the gtest support library).
std::map<std::string, std::string> profile_oracle(const nav::Engine& engine,
                                                  const nav::Profile& profile) {
  site::SiteBuildOptions options;
  options.site_base = engine.server().base();
  options.weave_context_tours = true;
  for (const std::string& name : profile.families) {
    for (const hm::ContextFamily& family : engine.context_families()) {
      if (family.name() == name) options.context_families.push_back(&family);
    }
  }
  site::VirtualSite built =
      site::build_separated_site(engine.world(), engine.structure(), options);
  std::map<std::string, std::string> out;
  for (auto& [path, content] : built.artifacts()) out.emplace(path, content);
  return out;
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

Record run_cell(const Cell& cell, std::size_t steps) {
  Record record;
  record.cell = cell;

  auto engine = museum_engine(cell.paintings);
  const std::vector<nav::Profile> profiles =
      register_profiles(*engine, cell.profiles);
  auto server = engine->open_concurrent(
      kShards, serve::CacheLimits{.base_entries_per_shard = cell.cap,
                                  .overlay_entries_per_shard = cell.cap});

  std::vector<std::string> pages;
  for (const std::string& path : engine->site().paths()) {
    if (path.size() > 5 && path.rfind(".html") == path.size() - 5) {
      pages.push_back(path);
    }
  }

  // Traffic: random (page, profile) pairs, base + overlay GET per step,
  // family edits interleaved at the configured rate.
  const std::size_t edit_every =
      cell.edits_per_1k == 0 ? 0 : std::max<std::size_t>(1000 / cell.edits_per_1k, 1);
  Rng rng(7 + cell.cap + cell.profiles * 131 + cell.edits_per_1k * 17);
  for (std::size_t step = 0; step < steps; ++step) {
    if (edit_every != 0 && step % edit_every == edit_every - 1) {
      (void)engine->edit_context_family("ByAuthor", rotate_first_context);
    }
    const std::string& page = rng.pick(pages);
    (void)server->get(page);
    (void)server->get(page, rng.pick(profiles).name);
    record.requests += 2;
  }
  record.after_traffic = server->unified_stats();

  // The asymmetry probe: warm every pair, capture its bytes, edit once,
  // re-probe pair by pair classifying outcome via counter deltas.
  std::map<std::string, std::string> before;  // "profile\npage" → bytes
  for (const nav::Profile& profile : profiles) {
    for (const std::string& page : pages) {
      site::Response r = server->get(page, profile.name);
      if (r.ok()) before.emplace(profile.name + '\n' + page, *r.body);
    }
  }
  nav::RebuildReport report = engine->edit_context_family(
      "ByAuthor", rotate_first_context);
  record.edit_pages_rewoven = report.pages_rewoven;
  record.edit_linkbases_reauthored = report.linkbases_reauthored;

  for (const nav::Profile& profile : profiles) {
    // Touched-ness comes from the post-edit ORACLE, not from the served
    // bytes — so a validity bug that wrongly keeps a stale entry alive
    // shows up as touched_retained > 0 instead of masking itself.
    const std::map<std::string, std::string> oracle =
        profile_oracle(*engine, profile);
    for (const std::string& page : pages) {
      const serve::ConcurrentServer::UnifiedStats pre = server->unified_stats();
      site::Response r = server->get(page, profile.name);
      if (!r.ok()) continue;
      const serve::ConcurrentServer::UnifiedStats post =
          server->unified_stats();
      ++record.pairs;
      const bool touched = before.at(profile.name + '\n' + page) != oracle.at(page);
      const bool hit = post.overlay.hits > pre.overlay.hits;
      if (touched) {
        ++record.touched_pairs;
        hit ? ++record.touched_retained : ++record.touched_retired;
      } else {
        hit ? ++record.untouched_retained : ++record.untouched_rendered;
      }
    }
  }
  return record;
}

void emit_json(const std::vector<Record>& records, std::ostream& out) {
  out << "{\n  \"bench\": \"e6_cache_economics\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const serve::ConcurrentServer::UnifiedStats& s = r.after_traffic;
    char buffer[64];
    auto ratio = [&](std::size_t hits, std::size_t requests) {
      std::snprintf(buffer, sizeof(buffer), "%.4f",
                    requests == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(requests));
      return std::string(buffer);
    };
    out << "    {\n";
    if (r.cell.cap == serve::CacheLimits::kUnbounded) {
      out << "      \"cap_per_shard\": -1,\n";  // -1 = unbounded
    } else {
      out << "      \"cap_per_shard\": " << r.cell.cap << ",\n";
    }
    out << "      \"shards\": " << kShards << ",\n";
    out << "      \"profiles\": " << r.cell.profiles << ",\n";
    out << "      \"edits_per_1k\": " << r.cell.edits_per_1k << ",\n";
    out << "      \"paintings\": " << r.cell.paintings << ",\n";
    out << "      \"requests\": " << r.requests << ",\n";
    out << "      \"base_hit_ratio\": " << ratio(s.base.hits, s.base.requests)
        << ",\n";
    out << "      \"overlay_hit_ratio\": "
        << ratio(s.overlay.hits, s.overlay.requests) << ",\n";
    out << "      \"base_entries\": " << s.base.entries << ",\n";
    out << "      \"base_inserted\": " << s.base.inserted << ",\n";
    out << "      \"base_evicted\": " << s.base.evicted << ",\n";
    out << "      \"overlay_entries\": " << s.overlay.entries << ",\n";
    out << "      \"overlay_inserted\": " << s.overlay.inserted << ",\n";
    out << "      \"overlay_evicted\": " << s.overlay.evicted << ",\n";
    out << "      \"pairs\": " << r.pairs << ",\n";
    out << "      \"touched_pairs\": " << r.touched_pairs << ",\n";
    out << "      \"touched_retired\": " << r.touched_retired << ",\n";
    out << "      \"touched_retained\": " << r.touched_retained << ",\n";
    out << "      \"untouched_retained\": " << r.untouched_retained << ",\n";
    out << "      \"untouched_rendered\": " << r.untouched_rendered << ",\n";
    out << "      \"edit_pages_rewoven\": " << r.edit_pages_rewoven << ",\n";
    out << "      \"edit_linkbases_reauthored\": "
        << r.edit_linkbases_reauthored << "\n";
    out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_e6.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: e6_cache_economics [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> caps =
      quick ? std::vector<std::size_t>{2, serve::CacheLimits::kUnbounded}
            : std::vector<std::size_t>{0, 2, 8,
                                       serve::CacheLimits::kUnbounded};
  const std::vector<std::size_t> profile_counts =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
  const std::vector<std::size_t> edit_rates =
      quick ? std::vector<std::size_t>{32}
            : std::vector<std::size_t>{0, 8, 32};
  const std::size_t paintings = quick ? 8 : 24;
  const std::size_t steps = quick ? 400 : 4000;

  std::vector<Record> records;
  for (std::size_t cap : caps) {
    for (std::size_t profiles : profile_counts) {
      for (std::size_t edits : edit_rates) {
        Record r = run_cell(Cell{cap, profiles, edits, paintings}, steps);
        const serve::ConcurrentServer::UnifiedStats& s = r.after_traffic;
        std::printf(
            "cap=%s profiles=%zu edits/1k=%zu -> overlay hit %.2f "
            "(%zu entries, %zu evicted); edit: %zu/%zu pairs touched, "
            "retained %zu untouched / retired %zu touched\n",
            cap == serve::CacheLimits::kUnbounded
                ? "inf"
                : std::to_string(cap).c_str(),
            r.cell.profiles, r.cell.edits_per_1k,
            s.overlay.requests == 0
                ? 0.0
                : static_cast<double>(s.overlay.hits) /
                      static_cast<double>(s.overlay.requests),
            s.overlay.entries, s.overlay.evicted, r.touched_pairs, r.pairs,
            r.untouched_retained, r.touched_retired);
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
