#include "nav/landmarks.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/hash.hpp"
#include "core/navigation_aspect.hpp"

namespace navsep::nav {

namespace {

/// The page → views table to rank against: the profile's overlay slice
/// when it recorded anything, else the global table — a freshly
/// registered audience still gets sensible landmarks.
std::map<std::string, std::uint64_t> views_table(
    const obs::TraceAggregate& traffic, std::string_view profile) {
  if (!profile.empty()) {
    std::map<std::string, std::uint64_t> slice;
    for (const auto& [key, count] : traffic.profile_page_views) {
      if (key.first == profile) slice[key.second] += count;
    }
    if (!slice.empty()) return slice;
  }
  return traffic.page_views;
}

std::uint64_t mix_str(std::uint64_t h, std::string_view s) {
  h = hash_combine(h, hash_bytes(s));
  return hash_combine(h, 0xffu);  // field separator
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return hash_combine(h, bits);
}

}  // namespace

bool is_landmark_family(std::string_view name) noexcept {
  return name.substr(0, kLandmarkFamily.size()) == kLandmarkFamily &&
         (name.size() == kLandmarkFamily.size() ||
          name[kLandmarkFamily.size()] == '-');
}

std::vector<LandmarkScore> score_landmarks(
    const obs::TraceAggregate& traffic, const core::ArcChunks& chunks,
    const LandmarkOptions& options, std::string_view profile) {
  // Universe: every node the authored arcs name, with its degree.
  std::map<std::string, std::size_t> degree;
  for (const std::shared_ptr<const core::ArcChunk>& chunk : chunks) {
    for (const core::NavArc& arc : chunk->arcs) {
      ++degree[arc.from];
      ++degree[arc.to];
    }
  }

  const std::map<std::string, std::uint64_t> views = views_table(traffic, profile);
  std::vector<LandmarkScore> scored;
  scored.reserve(degree.size());
  std::uint64_t max_views = 0;
  std::size_t max_degree = 0;
  for (const auto& [node_id, d] : degree) {
    LandmarkScore entry;
    entry.node_id = node_id;
    entry.degree = d;
    auto hit = views.find(core::default_href_for(node_id));
    entry.views = hit == views.end() ? 0 : hit->second;
    max_views = std::max(max_views, entry.views);
    max_degree = std::max(max_degree, entry.degree);
    scored.push_back(std::move(entry));
  }

  // Blend normalized popularity and centrality. Either signal may be
  // absent (no traffic yet, or a single isolated node); its term then
  // contributes zero rather than dividing by zero.
  for (LandmarkScore& entry : scored) {
    double score = 0.0;
    if (max_views > 0) {
      score += options.popularity_weight * static_cast<double>(entry.views) /
               static_cast<double>(max_views);
    }
    if (max_degree > 0) {
      score += options.centrality_weight *
               static_cast<double>(entry.degree) /
               static_cast<double>(max_degree);
    }
    entry.score = score;
  }

  std::sort(scored.begin(), scored.end(),
            [](const LandmarkScore& a, const LandmarkScore& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.node_id < b.node_id;
            });
  if (scored.size() > options.top_k) scored.resize(options.top_k);
  return scored;
}

hypermedia::ContextFamily landmark_context_family(
    std::string_view name, const std::vector<LandmarkScore>& picks) {
  std::vector<std::string> ids;
  ids.reserve(picks.size());
  for (const LandmarkScore& pick : picks) ids.push_back(pick.node_id);
  std::vector<hypermedia::NavigationalContext> contexts;
  contexts.emplace_back(std::string(name), "landmark", std::move(ids));
  return hypermedia::ContextFamily(std::string(name), std::move(contexts));
}

std::uint64_t landmark_token(std::string_view name,
                             const LandmarkOptions& options,
                             const obs::TraceAggregate& traffic,
                             std::string_view profile) {
  std::uint64_t h = mix_str(kFnvOffsetBasis, name);
  h = mix_str(h, profile);
  h = hash_combine(h, options.top_k);
  h = mix_double(h, options.popularity_weight);
  h = mix_double(h, options.centrality_weight);
  h = hash_combine(h, options.per_profile ? 1 : 0);
  // The ranking input is the traffic tables themselves; hashing them
  // here (not the derived picks) keeps the token independent of the arc
  // set — arc changes reach the linkbase through its structure/family
  // dependency edges instead.
  for (const auto& [page, count] : traffic.page_views) {
    h = mix_str(h, page);
    h = hash_combine(h, count);
  }
  for (const auto& [key, count] : traffic.profile_page_views) {
    h = mix_str(h, key.first);
    h = mix_str(h, key.second);
    h = hash_combine(h, count);
  }
  return h;
}

}  // namespace navsep::nav
