#include "oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/hash.hpp"
#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"

namespace navsep::testing {

site::VirtualSite full_build_oracle(const nav::Engine& engine) {
  site::SiteBuildOptions options;
  options.site_base = engine.server().base();
  for (const auto& family : engine.context_families()) {
    options.context_families.push_back(&family);
  }
  // AOT routes author a linkbase artifact exactly like a family; the
  // from-scratch build must author it too, from the same expansion.
  // Lazy routes leave no artifact — they expand inside snapshots only.
  std::vector<hypermedia::ContextFamily> route_families;
  route_families.reserve(engine.routes().size() +
                         engine.landmark_families().size());
  for (const nav::RouteProgram& program : engine.routes()) {
    if (program.compile != nav::RouteCompile::Aot) continue;
    route_families.push_back(engine.route_family(program.name));
  }
  // Landmark families are authored artifacts too (always AOT): the
  // from-scratch build must author them from the same ranked expansion.
  for (const std::string& name : engine.landmark_families()) {
    route_families.push_back(engine.landmark_family(name));
  }
  for (const auto& family : route_families) {
    options.context_families.push_back(&family);
  }
  auto snapshot = hypermedia::MaterializedStructure::snapshot(engine.structure());
  return site::build_separated_site(engine.world(), *snapshot, options);
}

std::map<std::string, std::string> profile_oracle(const nav::Engine& engine,
                                                  const nav::Profile& profile) {
  site::SiteBuildOptions options;
  options.site_base = engine.server().base();
  options.weave_context_tours = true;
  // A profile may name route programs alongside families; both compile
  // modes expand to the same context family here — the oracle is the
  // common truth the AOT artifact and the lazy overlay must both match.
  std::vector<hypermedia::ContextFamily> route_families;
  route_families.reserve(profile.families.size());
  const std::vector<std::string> landmark_names = engine.landmark_families();
  for (const std::string& name : profile.families) {
    bool found = false;
    for (const hypermedia::ContextFamily& family : engine.context_families()) {
      if (family.name() == name) {
        options.context_families.push_back(&family);
        found = true;
      }
    }
    if (!found) {
      const bool is_landmark =
          std::find(landmark_names.begin(), landmark_names.end(), name) !=
          landmark_names.end();
      route_families.push_back(is_landmark ? engine.landmark_family(name)
                                           : engine.route_family(name));
      options.context_families.push_back(&route_families.back());
    }
  }
  site::VirtualSite built =
      site::build_separated_site(engine.world(), engine.structure(), options);
  std::map<std::string, std::string> out;
  for (auto& [path, content] : built.artifacts()) out.emplace(path, content);
  return out;
}

void expect_sites_identical(const site::VirtualSite& actual,
                            const site::VirtualSite& expected) {
  ASSERT_EQ(actual.paths(), expected.paths());
  for (const auto& [path, content] : expected.artifacts()) {
    const std::string* got = actual.get(path);
    ASSERT_NE(got, nullptr) << path;
    EXPECT_EQ(*got, content) << "artifact diverged: " << path;
  }
}

void expect_profile_matches_oracle(const nav::Engine& engine,
                                   const serve::ConcurrentServer& server,
                                   const nav::Profile& profile) {
  const std::map<std::string, std::string> oracle =
      profile_oracle(engine, profile);
  for (const auto& [path, bytes] : oracle) {
    site::Response r = server.get(path, profile.name);
    ASSERT_TRUE(r.ok()) << profile.name << " " << path;
    EXPECT_EQ(*r.body, bytes) << profile.name << " " << path;
  }
  for (const std::string& path : engine.site().paths()) {
    if (oracle.find(path) != oracle.end()) continue;
    EXPECT_FALSE(server.get(path, profile.name).ok())
        << profile.name << " must not see " << path;
  }
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

core::ArcChunks chunks_of(const std::vector<core::NavArc>& arcs) {
  std::vector<std::pair<std::string, std::vector<core::NavArc>>> by_source;
  for (const core::NavArc& arc : arcs) {
    auto it = std::find_if(by_source.begin(), by_source.end(),
                           [&](const auto& s) { return s.first == arc.source; });
    if (it == by_source.end()) {
      it = by_source.insert(by_source.end(), {arc.source, {}});
    }
    it->second.push_back(arc);
  }
  core::ArcChunks chunks;
  for (auto& [source, own] : by_source) {
    chunks.push_back(core::make_arc_chunk(source, std::move(own)));
  }
  return chunks;
}

core::PageSliceHashes fold_slice_hashes(const std::vector<core::NavArc>& arcs) {
  core::PageSliceHashes hashes;
  for (const core::NavArc& arc : arcs) {
    auto [it, fresh] = hashes.try_emplace(core::default_href_for(arc.from),
                                          core::kEmptySliceHash);
    it->second = hash_combine(it->second, core::arc_hash(arc));
  }
  return hashes;
}

std::map<std::string_view, std::uint64_t, std::less<>> fold_woven_hashes(
    const std::vector<core::NavArc>& arcs) {
  std::map<std::string_view, std::uint64_t, std::less<>> hashes;
  for (const core::NavArc& arc : arcs) {
    if (!arc.context.empty()) continue;
    auto [it, fresh] = hashes.try_emplace(arc.from, core::kEmptySliceHash);
    it->second = hash_combine(it->second, core::arc_hash(arc));
  }
  return hashes;
}

void expect_same_chunks(const core::ArcChunks& want,
                        const core::ArcChunks& got) {
  ASSERT_EQ(want.size(), got.size()) << "chunk count";
  for (std::size_t i = 0; i < want.size(); ++i) {
    const core::ArcChunk& a = *want[i];
    const core::ArcChunk& b = *got[i];
    EXPECT_EQ(a.source, b.source) << "chunk " << i;
    ASSERT_EQ(a.arcs.size(), b.arcs.size()) << a.source;
    for (std::size_t j = 0; j < a.arcs.size(); ++j) {
      const core::NavArc& x = a.arcs[j];
      const core::NavArc& y = b.arcs[j];
      EXPECT_EQ(std::tie(x.from, x.to, x.role, x.title, x.context, x.source,
                         x.ordinal),
                std::tie(y.from, y.to, y.role, y.title, y.context, y.source,
                         y.ordinal))
          << a.source << " arc " << j;
    }
    EXPECT_EQ(a.slice_hashes, b.slice_hashes) << a.source;
    EXPECT_EQ(a.woven_hashes, b.woven_hashes) << a.source;
  }
}

}  // namespace navsep::testing
