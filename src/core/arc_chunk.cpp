#include "core/arc_chunk.hpp"

#include <utility>

#include "common/hash.hpp"
#include "core/navigation_aspect.hpp"

namespace navsep::core {

std::uint64_t arc_hash(const NavArc& arc) noexcept {
  std::uint64_t a = hash_bytes(arc.from);
  a = hash_combine(a, hash_bytes(arc.to));
  a = hash_combine(a, hash_bytes(arc.role));
  a = hash_combine(a, hash_bytes(arc.title));
  return hash_combine(a, hash_bytes(arc.context));
}

const std::vector<const NavArc*>* ArcChunk::leaving(
    std::string_view path) const {
  auto it = by_page.find(path);
  return it == by_page.end() ? nullptr : &it->second;
}

std::uint64_t ArcChunk::slice_hash(std::string_view path) const {
  auto it = slice_hashes.find(path);
  return it == slice_hashes.end() ? kEmptySliceHash : it->second;
}

std::shared_ptr<const ArcChunk> find_chunk(const ArcChunks& chunks,
                                           std::string_view source) {
  for (const std::shared_ptr<const ArcChunk>& chunk : chunks) {
    if (chunk->source == source) return chunk;
  }
  return nullptr;
}

std::shared_ptr<const ArcChunk> make_arc_chunk(std::string source,
                                               std::vector<NavArc> arcs) {
  auto chunk = std::make_shared<ArcChunk>();
  chunk->source = std::move(source);
  chunk->arcs = std::move(arcs);
  for (NavArc& arc : chunk->arcs) {
    if (arc.source != chunk->source) arc.source = chunk->source;
    const std::uint64_t hash = arc_hash(arc);
    std::string page = default_href_for(arc.from);
    auto [slice, fresh] = chunk->slice_hashes.try_emplace(page, kEmptySliceHash);
    slice->second = hash_combine(slice->second, hash);
    if (arc.context.empty()) {
      auto [woven, added] =
          chunk->woven_hashes.try_emplace(arc.from, kEmptySliceHash);
      woven->second = hash_combine(woven->second, hash);
    }
    chunk->by_page[std::move(page)].push_back(&arc);
  }
  return chunk;
}

}  // namespace navsep::core
