// Per-session navigation trace capture.
//
// A Workload session is one simulated visitor following arcs through
// the museum. With tracing on, each step it takes is recorded into a
// TraceRing owned by that session alone — single-writer, no atomics,
// no locks, bounded — so capture costs one array store per sampled
// step and the serve path stays wait-free. After the sessions join,
// TraceAggregate::absorb() folds every ring into per-page and
// per-(arc, role) popularity tables: exactly the substrate the
// ROADMAP's landmark-synthesis and predictive-warming items consume.
//
// Sampling: TraceConfig::sample_every records every Nth step
// (sample_every == 1 is full capture). The ring overwrites its oldest
// event when full and counts the drops, so memory is bounded no
// matter how long a session runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/ring.hpp"

namespace navsep::obs {

/// One navigation step as a session saw it.
struct TraceEvent {
  std::string from;     ///< page the session was on ("" at entry)
  std::string to;       ///< page it requested
  std::string role;     ///< arc role followed ("" for direct entry)
  std::string profile;  ///< profile lens, "" for base pages
  std::uint64_t epoch = 0;       ///< snapshot epoch that served it
  std::uint64_t latency_ns = 0;  ///< observed serve latency
  bool ok = true;                ///< request succeeded
};

/// Capture knobs, carried in WorkloadOptions.
struct TraceConfig {
  bool enabled = false;            ///< master switch: off = zero cost
  std::uint32_t sample_every = 1;  ///< record every Nth step (>= 1)
  std::size_t ring_capacity = 1024;  ///< events retained per session
};

/// Bounded single-writer ring of TraceEvents. Owned by exactly one
/// session thread while it runs; readers (the aggregator) only look
/// after the writer joins.
using TraceRing = BoundedRing<TraceEvent>;

/// An arc as the popularity table keys it: who linked where, and via
/// which role.
struct ArcKey {
  std::string from;
  std::string to;
  std::string role;

  [[nodiscard]] bool operator<(const ArcKey& other) const noexcept {
    return std::tie(from, to, role) <
           std::tie(other.from, other.to, other.role);
  }
  [[nodiscard]] bool operator==(const ArcKey& other) const noexcept {
    return from == other.from && to == other.to && role == other.role;
  }
};

/// One ranked (page, profile) heat entry — the unit the cache warmer
/// pre-renders and the landmark scorer weighs. An empty profile means
/// base-layer traffic.
struct HotEntry {
  std::string page;
  std::string profile;
  std::uint64_t views = 0;
};

/// Post-run popularity tables folded from every session's ring.
struct TraceAggregate {
  std::map<std::string, std::uint64_t> page_views;  ///< to-page → hits
  std::map<ArcKey, std::uint64_t> arc_follows;  ///< (from,to,role) → hits
  /// (profile, to-page) → hits, for profile-scoped traffic only: the
  /// overlay-layer heat map predictive warming draws from.
  std::map<std::pair<std::string, std::string>, std::uint64_t>
      profile_page_views;
  std::uint64_t events = 0;    ///< events absorbed (retained in rings)
  std::uint64_t failures = 0;  ///< absorbed events with ok == false
  std::uint64_t recorded = 0;  ///< total ring records incl. overwritten
  std::uint64_t dropped = 0;   ///< events overwritten before absorb

  void absorb(const TraceRing& ring) {
    for (const auto& event : ring.events()) {
      ++events;
      if (!event.ok) ++failures;
      ++page_views[event.to];
      if (!event.profile.empty()) {
        ++profile_page_views[{event.profile, event.to}];
      }
      if (!event.role.empty()) {
        ++arc_follows[ArcKey{event.from, event.to, event.role}];
      }
    }
    recorded += ring.recorded();
    dropped += ring.dropped();
  }

  /// The n most-viewed pages, hottest first (ties by name).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> top_pages(
      std::size_t n) const;

  /// The n hottest (page, profile) entries across BOTH serving layers,
  /// hottest first (ties by page then profile name — fully
  /// deterministic). Profiled traffic ranks per (page, profile) row;
  /// base-layer traffic (page_views not attributable to any profile)
  /// ranks as rows with an empty profile — exactly the key shape
  /// ConcurrentServer::warm() takes, so the vector is a ready warming
  /// feed.
  [[nodiscard]] std::vector<HotEntry> top_entries(std::size_t n) const;
};

}  // namespace navsep::obs
