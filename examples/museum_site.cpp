// museum_site: build the whole museum web site, both ways, and write it to
// disk so the artifacts can be inspected side by side.
//
//   museum-site/separated/   data/*.xml, links.xml, presentation.xsl,
//                            museum.css and the woven *.html pages
//   museum-site/tangled/     *.html with navigation baked in
//
// The separated build runs through nav::SitePipeline; the tangled
// baseline renders the same access structure with
// site::build_tangled_site.
//
// Usage: build/examples/museum_site [painters] [paintings-per-painter]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "nav/pipeline.hpp"
#include "site/virtual_site.hpp"

namespace {

void write_site(const navsep::site::VirtualSite& site,
                const std::filesystem::path& root) {
  for (const auto& [path, content] : site.artifacts()) {
    std::filesystem::path full = root / path;
    std::filesystem::create_directories(full.parent_path());
    std::ofstream out(full, std::ios::binary);
    out << content;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace navsep;

  std::size_t painters = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  std::size_t paintings = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 5;

  // One conceptual world feeds both builds (borrowed, not moved).
  auto world = museum::MuseumWorld::synthetic({.painters = painters,
                                               .paintings_per_painter =
                                                   paintings,
                                               .movements = 3,
                                               .seed = 2026});
  constexpr auto kKind = hypermedia::AccessStructureKind::IndexedGuidedTour;

  site::VirtualSite separated =
      nav::SitePipeline().conceptual(*world).access(kKind).weave().build();
  const hypermedia::NavigationalModel model = world->derive_navigation();
  site::VirtualSite tangled = site::build_tangled_site(
      *world, *world->all_paintings_structure(kKind, model));

  write_site(separated, "museum-site/separated");
  write_site(tangled, "museum-site/tangled");

  std::printf("museum: %zu painters, %zu paintings\n", painters,
              painters * paintings);
  std::printf("separated site: %zu artifacts, %zu bytes -> %s\n",
              separated.size(), separated.total_bytes(),
              "museum-site/separated");
  std::printf("tangled   site: %zu artifacts, %zu bytes -> %s\n",
              tangled.size(), tangled.total_bytes(), "museum-site/tangled");
  std::printf("\nseparated artifact list:\n");
  for (const std::string& path : separated.paths()) {
    std::printf("  %s\n", path.c_str());
  }
  return 0;
}
