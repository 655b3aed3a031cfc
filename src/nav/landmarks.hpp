// Landmark synthesis — the consumption half of traffic intelligence.
//
// Workload traces (obs/trace.hpp) fold into popularity tables; this
// module turns them back into *authored navigation*: it scores every
// node the arc table names by a blend of observed traffic and arc-graph
// centrality, picks the top-K hubs, and expresses them as an ordinary
// context family ("landmarks", one guided-tour context hottest-first).
// The engine (nav/pipeline.cpp) authors that family through the normal
// build graph — a `landmark:<name>` product node feeding a
// `links-<name>.xml` linkbase, exactly the shape of PR 9's AOT routes —
// so landmark pages are byte-identical to a from-scratch build and ride
// snapshot replication for free.
//
// Everything here is a pure function of (traffic, arcs, options):
// deterministic given its inputs, no engine state, unit-testable alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/arc_chunk.hpp"
#include "hypermedia/context.hpp"
#include "obs/trace.hpp"

namespace navsep::nav {

/// The base landmark family every profile navigates with once
/// Engine::enable_landmarks runs; per-profile families append
/// `-<profile>`.
inline constexpr std::string_view kLandmarkFamily = "landmarks";

/// Whether `name` is spelled like a landmark family (`landmarks` or
/// `landmarks-<profile>`). Landmark arcs are generated navigation, so
/// the serve-time lazy route expansion leaves these sources out exactly
/// as the engine's AOT expansion does. A context family never carries
/// such a name; a route may, and routes are left out anyway.
[[nodiscard]] bool is_landmark_family(std::string_view name) noexcept;

/// Synthesis knobs, stored by Engine::enable_landmarks.
struct LandmarkOptions {
  /// Hub pages per landmark family (the access structure's fan-out).
  std::size_t top_k = 4;
  /// Weight of normalized observed page views in the blend.
  double popularity_weight = 1.0;
  /// Weight of normalized arc-graph degree (in + out) in the blend.
  double centrality_weight = 1.0;
  /// Also synthesize one "landmarks-<profile>" family per registered
  /// profile, scored from that profile's overlay traffic (profiles with
  /// no recorded traffic fall back to the global tables).
  bool per_profile = false;
};

/// One ranked hub candidate. `views` joins the trace aggregate's page
/// tables to the node through core::default_href_for(node_id).
struct LandmarkScore {
  std::string node_id;
  std::uint64_t views = 0;   ///< observed hits on the node's page
  std::size_t degree = 0;    ///< in+out arcs naming the node
  double score = 0.0;        ///< popularity/centrality blend, in [0, 2]
};

/// Rank every node the arcs of `chunks` name and return the top_k,
/// hottest first (ties broken by node id — fully deterministic). The
/// engine passes its authored structure and family chunks. An empty
/// `profile` scores against the global page_views table; a named
/// profile scores against its profile_page_views slice, falling back to
/// the global table when that profile recorded nothing.
[[nodiscard]] std::vector<LandmarkScore> score_landmarks(
    const obs::TraceAggregate& traffic, const core::ArcChunks& chunks,
    const LandmarkOptions& options, std::string_view profile = {});

/// Express ranked picks as a servable context family: one
/// `<name>:landmark` guided-tour context over the picked node ids in
/// rank order — what the engine authors into `links-<name>.xml` and the
/// full-build oracle must reproduce byte-for-byte.
[[nodiscard]] hypermedia::ContextFamily landmark_context_family(
    std::string_view name, const std::vector<LandmarkScore>& picks);

/// Content hash of one landmark program: name, options, and the traffic
/// slice it ranks from. This is the `landmark:<name>` build-graph
/// node's product — re-feeding identical traffic cuts off right there.
[[nodiscard]] std::uint64_t landmark_token(
    std::string_view name, const LandmarkOptions& options,
    const obs::TraceAggregate& traffic, std::string_view profile = {});

}  // namespace navsep::nav
