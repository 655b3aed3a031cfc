#include "repl/wire.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

namespace navsep::repl {

namespace {

// Sanity ceilings: a malformed length prefix must fail fast, not
// allocate the universe. Generous enough for any realistic site.
constexpr std::uint64_t kMaxPayload = 1ull << 33;   // 8 GiB
constexpr std::uint32_t kMaxString = 1u << 31;      // 2 GiB
constexpr std::uint32_t kMaxCount = 1u << 28;       // 256M records

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void raw(const void* v, std::size_t n) {
    // Fixed-width little-endian, byte by byte: independent of host
    // endianness (the wire may cross machines).
    const auto* bytes = static_cast<const unsigned char*>(v);
    std::uint64_t value = 0;
    std::memcpy(&value, bytes, n);
    for (std::size_t i = 0; i < n; ++i) {
      out_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(uint_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint_le(4)); }
  std::uint64_t u64() { return uint_le(8); }
  std::string_view str() {
    const std::uint32_t n = u32();
    if (n > kMaxString) throw WireError("wire: string length out of range");
    return take(n);
  }
  std::uint32_t count() {
    const std::uint32_t n = u32();
    if (n > kMaxCount) throw WireError("wire: record count out of range");
    return n;
  }
  /// A count whose records each occupy at least `min_record_bytes` on
  /// the wire. Decoders that pre-allocate `n` records must use this
  /// form: a corrupted count can then never demand more memory than the
  /// remaining payload could possibly justify — the per-record reads
  /// would have thrown anyway, but only AFTER a resize(n) tried to
  /// allocate gigabytes.
  std::uint32_t count(std::size_t min_record_bytes) {
    const std::uint32_t n = count();
    if (n > remaining() / min_record_bytes) {
      throw WireError("wire: record count exceeds remaining payload");
    }
    return n;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

 private:
  std::string_view take(std::size_t n) {
    if (bytes_.size() - pos_ < n) {
      throw WireError("wire: truncated payload (needed " + std::to_string(n) +
                      " bytes at offset " + std::to_string(pos_) + ")");
    }
    std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::uint64_t uint_le(std::size_t n) {
    std::string_view raw = take(n);
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < n; ++i) {
      value |= static_cast<std::uint64_t>(static_cast<unsigned char>(raw[i]))
               << (8 * i);
    }
    return value;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

void require(bool ok, const char* what) {
  if (!ok) throw WireError(std::string("wire: ") + what);
}

// --- shared record encodings --------------------------------------------------

void write_snapshot_arcs(ByteWriter& w,
                         const std::vector<serve::SnapshotArc>& arcs) {
  w.u32(static_cast<std::uint32_t>(arcs.size()));
  for (const serve::SnapshotArc& arc : arcs) {
    w.str(arc.from);
    w.str(arc.to);
    w.str(arc.arcrole);
    w.str(arc.title);
    w.u8(arc.traversable ? 1 : 0);
  }
}

std::vector<serve::SnapshotArc> read_snapshot_arcs(ByteReader& r) {
  // Each arc is ≥ four length prefixes + the traversable byte.
  std::vector<serve::SnapshotArc> arcs(r.count(17));
  for (serve::SnapshotArc& arc : arcs) {
    arc.from = std::string(r.str());
    arc.to = std::string(r.str());
    arc.arcrole = std::string(r.str());
    arc.title = std::string(r.str());
    arc.traversable = r.u8() != 0;
  }
  return arcs;
}

void write_nav_arcs(ByteWriter& w, const std::vector<const core::NavArc*>& arcs) {
  w.u32(static_cast<std::uint32_t>(arcs.size()));
  for (const core::NavArc* arc : arcs) {
    w.str(arc->from);
    w.str(arc->to);
    w.str(arc->role);
    w.str(arc->title);
    w.str(arc->context);
    w.u32(static_cast<std::uint32_t>(arc->ordinal));
  }
}

void read_nav_arcs(ByteReader& r, std::string_view source,
                   std::vector<core::NavArc>& out) {
  // Each arc is ≥ five length prefixes + the ordinal.
  const std::uint32_t n = r.count(24);
  out.reserve(out.size() + n);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::NavArc arc;
    arc.from = std::string(r.str());
    arc.to = std::string(r.str());
    arc.role = std::string(r.str());
    arc.title = std::string(r.str());
    arc.context = std::string(r.str());
    arc.ordinal = r.u32();
    arc.source = std::string(source);  // implied by the segment
    out.push_back(std::move(arc));
  }
}

void write_profiles(ByteWriter& w, const std::vector<nav::Profile>& profiles) {
  w.u32(static_cast<std::uint32_t>(profiles.size()));
  for (const nav::Profile& profile : profiles) {
    w.str(profile.name);
    w.u32(static_cast<std::uint32_t>(profile.families.size()));
    for (const std::string& family : profile.families) w.str(family);
  }
}

std::vector<nav::Profile> read_profiles(ByteReader& r) {
  std::vector<nav::Profile> profiles(r.count(8));
  for (nav::Profile& profile : profiles) {
    profile.name = std::string(r.str());
    profile.families.resize(r.count(4));
    for (std::string& family : profile.families) {
      family = std::string(r.str());
    }
  }
  return profiles;
}

void write_families(
    ByteWriter& w,
    const std::vector<serve::SnapshotOverlayInputs::Family>& families) {
  w.u32(static_cast<std::uint32_t>(families.size()));
  for (const auto& family : families) {
    w.str(family.name);
    w.str(family.source);
  }
}

std::vector<serve::SnapshotOverlayInputs::Family> read_families(ByteReader& r) {
  std::vector<serve::SnapshotOverlayInputs::Family> families(r.count(8));
  for (auto& family : families) {
    family.name = std::string(r.str());
    family.source = std::string(r.str());
  }
  return families;
}

void write_route_table(ByteWriter& w, const serve::RouteTable* table) {
  if (table == nullptr) {
    w.u8(0);
    return;
  }
  w.u8(1);
  w.u32(static_cast<std::uint32_t>(table->entries.size()));
  for (const serve::RouteTable::Entry& entry : table->entries) {
    w.str(entry.program.name);
    w.str(entry.program.expression);
    w.u8(static_cast<std::uint8_t>(entry.program.compile));
    w.str(entry.source);
  }
  w.u32(static_cast<std::uint32_t>(table->titles.size()));
  for (const auto& [id, title] : table->titles) {
    w.str(id);
    w.str(title);
  }
}

std::shared_ptr<const serve::RouteTable> read_route_table(ByteReader& r) {
  if (r.u8() == 0) return nullptr;
  auto table = std::make_shared<serve::RouteTable>();
  // Each entry is ≥ three length prefixes + the compile-mode byte.
  table->entries.resize(r.count(13));
  for (serve::RouteTable::Entry& entry : table->entries) {
    entry.program.name = std::string(r.str());
    entry.program.expression = std::string(r.str());
    const std::uint8_t compile = r.u8();
    if (compile > static_cast<std::uint8_t>(nav::RouteCompile::Lazy)) {
      throw WireError("wire: unknown route compile mode " +
                      std::to_string(compile));
    }
    entry.program.compile = static_cast<nav::RouteCompile>(compile);
    entry.source = std::string(r.str());
  }
  const std::uint32_t n_titles = r.count();
  for (std::uint32_t i = 0; i < n_titles; ++i) {
    std::string id(r.str());
    table->titles.emplace(std::move(id), std::string(r.str()));
  }
  return table;
}

/// The combined arc set partitioned by NavArc::source in first-
/// appearance order — the delta's unit of change. Pointers into `arcs`.
struct Segment {
  std::string_view source;
  std::vector<const core::NavArc*> arcs;
};

std::vector<Segment> segment_arcs(const std::vector<core::NavArc>& arcs) {
  std::vector<Segment> segments;
  for (const core::NavArc& arc : arcs) {
    if (segments.empty() || segments.back().source != arc.source) {
      auto it = std::find_if(
          segments.begin(), segments.end(),
          [&](const Segment& s) { return s.source == arc.source; });
      if (it != segments.end()) {
        it->arcs.push_back(&arc);
        continue;
      }
      segments.push_back(Segment{arc.source, {}});
    }
    segments.back().arcs.push_back(&arc);
  }
  return segments;
}

/// The per-page slice-hash table of one source (null = no arcs, which
/// slice_hash_for treats as all-empty slices).
const serve::PageSliceHashes* hashes_for(const serve::SiteSnapshot& snapshot,
                                         std::string_view source) {
  auto it = snapshot.slice_hashes()->find(source);
  return it == snapshot.slice_hashes()->end() ? nullptr : &it->second;
}

/// Hash-table equality = segment-content equality (the PR 5 convention:
/// hash equality stands in for content equality, 2⁻⁶⁴ collision budget).
bool segment_unchanged(const serve::SiteSnapshot& prev,
                       const serve::SiteSnapshot& next,
                       std::string_view source) {
  const serve::PageSliceHashes* a = hashes_for(prev, source);
  const serve::PageSliceHashes* b = hashes_for(next, source);
  if (a == nullptr || b == nullptr) return a == nullptr && b == nullptr;
  return *a == *b;
}

}  // namespace

std::uint64_t wire_checksum(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  ByteWriter w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(payload.size());
  w.u64(wire_checksum(payload));
  std::string frame = w.take();
  frame.append(payload);
  return frame;
}

FrameHeader decode_frame_header(std::string_view header_bytes) {
  require(header_bytes.size() >= kFrameHeaderSize, "short frame header");
  ByteReader r(header_bytes.substr(0, kFrameHeaderSize));
  require(r.u32() == kWireMagic, "bad magic (not a navsep wire frame)");
  FrameHeader header;
  header.version = r.u16();
  require(header.version == kWireVersion, "unsupported wire version");
  const std::uint16_t type = r.u16();
  require(type == static_cast<std::uint16_t>(FrameType::Full) ||
              type == static_cast<std::uint16_t>(FrameType::Delta),
          "unknown frame type");
  header.type = static_cast<FrameType>(type);
  header.payload_size = r.u64();
  require(header.payload_size <= kMaxPayload, "payload size out of range");
  header.checksum = r.u64();
  return header;
}

void verify_payload(const FrameHeader& header, std::string_view payload) {
  require(payload.size() == header.payload_size, "payload length mismatch");
  require(wire_checksum(payload) == header.checksum,
          "payload checksum mismatch (corrupt frame)");
}

Frame parse_frame(std::string_view bytes) {
  FrameHeader header = decode_frame_header(bytes);
  std::string_view payload = bytes.substr(kFrameHeaderSize);
  verify_payload(header, payload);
  return Frame{header.type, std::string(payload)};
}

// --- FULL ---------------------------------------------------------------------

std::string encode_full(const serve::SiteSnapshot& snapshot) {
  ByteWriter w;
  w.u64(snapshot.epoch());
  w.str(snapshot.base());

  w.u32(static_cast<std::uint32_t>(snapshot.files().size()));
  for (const auto& [path, body] : snapshot.files()) {
    w.str(path);
    w.str(*body);
  }

  w.u32(static_cast<std::uint32_t>(snapshot.traversal_arcs().size()));
  for (const auto& [from, arcs] : snapshot.traversal_arcs()) {
    w.str(from);
    write_snapshot_arcs(w, arcs);
  }

  w.str(snapshot.structure_source());
  write_families(w, snapshot.overlay_families());
  const std::vector<Segment> segments = segment_arcs(*snapshot.overlay_arcs());
  w.u32(static_cast<std::uint32_t>(segments.size()));
  for (const Segment& segment : segments) {
    w.str(segment.source);
    write_nav_arcs(w, segment.arcs);
  }
  write_profiles(w, snapshot.profiles());
  write_route_table(w, snapshot.route_table().get());
  return w.take();
}

std::shared_ptr<const serve::SiteSnapshot> decode_full(
    std::string_view payload) {
  ByteReader r(payload);
  serve::SnapshotState state;
  state.epoch = r.u64();
  state.base = std::string(r.str());

  const std::uint32_t n_files = r.count();
  for (std::uint32_t i = 0; i < n_files; ++i) {
    std::string path(r.str());
    auto body = std::make_shared<const std::string>(r.str());
    state.files.emplace(std::move(path), std::move(body));
  }

  const std::uint32_t n_buckets = r.count();
  for (std::uint32_t i = 0; i < n_buckets; ++i) {
    std::string from(r.str());
    state.arcs_by_from.emplace(std::move(from), read_snapshot_arcs(r));
  }

  state.overlays.structure_source = std::string(r.str());
  state.overlays.families = read_families(r);
  auto arcs = std::make_shared<std::vector<core::NavArc>>();
  const std::uint32_t n_segments = r.count();
  for (std::uint32_t i = 0; i < n_segments; ++i) {
    std::string source(r.str());
    read_nav_arcs(r, source, *arcs);
  }
  state.overlays.arcs = std::move(arcs);
  // slice_hashes stay null: the snapshot derives them (the explicit
  // derive-when-absent path — identical fold to the origin's).
  state.overlays.profiles = read_profiles(r);
  state.overlays.routes = read_route_table(r);
  require(r.exhausted(), "trailing bytes after FULL payload");
  return std::make_shared<serve::SiteSnapshot>(std::move(state));
}

// --- DELTA --------------------------------------------------------------------

std::string encode_delta(const serve::SiteSnapshot& prev,
                         const serve::SiteSnapshot& next) {
  if (next.epoch() <= prev.epoch()) {
    throw WireError("wire: delta epochs must advance (from " +
                    std::to_string(prev.epoch()) + " to " +
                    std::to_string(next.epoch()) + ")");
  }
  if (prev.base() != next.base()) {
    throw WireError("wire: delta across different site bases (" +
                    prev.base() + " vs " + next.base() + ")");
  }
  ByteWriter w;
  w.u64(prev.epoch());
  w.u64(next.epoch());
  w.str(next.base());

  // Artifacts: shared-handle identity is content identity (artifacts
  // swap, never mutate); compare bytes only when handles differ, so an
  // epoch that republished identical bytes under a fresh handle still
  // ships nothing.
  ByteWriter changed_files;
  std::uint32_t n_changed_files = 0;
  for (const auto& [path, body] : next.files()) {
    auto it = prev.files().find(path);
    if (it != prev.files().end() &&
        (it->second == body || *it->second == *body)) {
      continue;
    }
    changed_files.str(path);
    changed_files.str(*body);
    ++n_changed_files;
  }
  w.u32(n_changed_files);
  std::string changed_bytes = changed_files.take();
  // (ByteWriter has no splice; append the pre-counted record block.)
  std::string out = w.take();
  out.append(changed_bytes);
  ByteWriter w2;
  std::uint32_t n_removed_files = 0;
  for (const auto& [path, body] : prev.files()) {
    if (next.files().find(path) == next.files().end()) {
      w2.str(path);
      ++n_removed_files;
    }
  }
  {
    ByteWriter countw;
    countw.u32(n_removed_files);
    out.append(countw.take());
    out.append(w2.take());
  }

  // Traversal buckets, by value equality per from-URI.
  ByteWriter buckets;
  std::uint32_t n_changed_buckets = 0;
  for (const auto& [from, arcs] : next.traversal_arcs()) {
    auto it = prev.traversal_arcs().find(from);
    if (it != prev.traversal_arcs().end() && it->second == arcs) continue;
    buckets.str(from);
    write_snapshot_arcs(buckets, arcs);
    ++n_changed_buckets;
  }
  ByteWriter removed_buckets;
  std::uint32_t n_removed_buckets = 0;
  for (const auto& [from, arcs] : prev.traversal_arcs()) {
    if (next.traversal_arcs().find(from) == next.traversal_arcs().end()) {
      removed_buckets.str(from);
      ++n_removed_buckets;
    }
  }
  {
    ByteWriter countw;
    countw.u32(n_changed_buckets);
    out.append(countw.take());
    out.append(buckets.take());
    ByteWriter countw2;
    countw2.u32(n_removed_buckets);
    out.append(countw2.take());
    out.append(removed_buckets.take());
  }

  // Route tables ride like arc segments: unchanged tables (pointer
  // identity — the engine keeps it across epochs — or value equality as
  // the fallback) cost one carry byte; only a changed table ships.
  const serve::RouteTable* prev_routes = prev.route_table().get();
  const serve::RouteTable* next_routes = next.route_table().get();
  const bool routes_carry =
      prev_routes == next_routes ||
      (prev_routes != nullptr && next_routes != nullptr &&
       *prev_routes == *next_routes);

  ByteWriter tail;
  tail.str(next.structure_source());
  write_families(tail, next.overlay_families());
  // Segment selection is slice-hash-driven: a source whose per-page
  // hash table is identical in both snapshots is carried forward by
  // reference (one byte on the wire); only moved segments ship arcs.
  const std::vector<Segment> segments = segment_arcs(*next.overlay_arcs());
  tail.u32(static_cast<std::uint32_t>(segments.size()));
  for (const Segment& segment : segments) {
    tail.str(segment.source);
    const bool carry = segment_unchanged(prev, next, segment.source);
    tail.u8(carry ? 0 : 1);
    if (!carry) write_nav_arcs(tail, segment.arcs);
  }
  write_profiles(tail, next.profiles());
  tail.u8(routes_carry ? 0 : 1);
  if (!routes_carry) write_route_table(tail, next_routes);
  out.append(tail.take());
  return out;
}

std::shared_ptr<const serve::SiteSnapshot> apply_delta(
    std::string_view payload, const serve::SiteSnapshot& prev) {
  ByteReader r(payload);
  const std::uint64_t from_epoch = r.u64();
  const std::uint64_t to_epoch = r.u64();
  if (from_epoch != prev.epoch()) {
    throw WireError("wire: delta from epoch " + std::to_string(from_epoch) +
                    " cannot apply to snapshot at epoch " +
                    std::to_string(prev.epoch()) + " (resync required)");
  }
  require(to_epoch > from_epoch, "delta epochs must advance");
  serve::SnapshotState state;
  state.epoch = to_epoch;
  state.base = std::string(r.str());
  if (state.base != prev.base()) {
    throw WireError("wire: delta base '" + state.base +
                    "' does not match snapshot base '" + prev.base() + "'");
  }

  state.files = prev.files();  // shared handles, cheap
  const std::uint32_t n_changed_files = r.count();
  for (std::uint32_t i = 0; i < n_changed_files; ++i) {
    std::string path(r.str());
    state.files[std::move(path)] =
        std::make_shared<const std::string>(r.str());
  }
  const std::uint32_t n_removed_files = r.count();
  for (std::uint32_t i = 0; i < n_removed_files; ++i) {
    const std::string_view path = r.str();
    auto it = state.files.find(path);
    if (it == state.files.end()) {
      throw WireError("wire: delta removes artifact '" + std::string(path) +
                      "' the previous snapshot does not hold");
    }
    state.files.erase(it);
  }

  state.arcs_by_from = prev.traversal_arcs();
  const std::uint32_t n_changed_buckets = r.count();
  for (std::uint32_t i = 0; i < n_changed_buckets; ++i) {
    std::string from(r.str());
    state.arcs_by_from[std::move(from)] = read_snapshot_arcs(r);
  }
  const std::uint32_t n_removed_buckets = r.count();
  for (std::uint32_t i = 0; i < n_removed_buckets; ++i) {
    state.arcs_by_from.erase(std::string(r.str()));
  }

  state.overlays.structure_source = std::string(r.str());
  state.overlays.families = read_families(r);
  // Reassemble the combined arc set: carried segments copy the previous
  // snapshot's arcs for that source (order preserved), inline segments
  // decode from the wire.
  std::map<std::string_view, std::vector<const core::NavArc*>> prev_by_source;
  for (const core::NavArc& arc : *prev.overlay_arcs()) {
    prev_by_source[arc.source].push_back(&arc);
  }
  auto arcs = std::make_shared<std::vector<core::NavArc>>();
  const std::uint32_t n_segments = r.count();
  for (std::uint32_t i = 0; i < n_segments; ++i) {
    std::string source(r.str());
    if (r.u8() == 0) {
      auto it = prev_by_source.find(source);
      if (it == prev_by_source.end()) {
        throw WireError("wire: delta carries forward segment '" + source +
                        "' the previous snapshot does not hold");
      }
      arcs->reserve(arcs->size() + it->second.size());
      for (const core::NavArc* arc : it->second) arcs->push_back(*arc);
    } else {
      read_nav_arcs(r, source, *arcs);
    }
  }
  state.overlays.arcs = std::move(arcs);
  state.overlays.profiles = read_profiles(r);
  if (r.u8() == 0) {
    state.overlays.routes = prev.route_table();  // carried forward
  } else {
    state.overlays.routes = read_route_table(r);
  }
  require(r.exhausted(), "trailing bytes after DELTA payload");
  return std::make_shared<serve::SiteSnapshot>(std::move(state));
}

std::shared_ptr<const serve::SiteSnapshot> apply_frame(
    const Frame& frame,
    const std::shared_ptr<const serve::SiteSnapshot>& prev) {
  switch (frame.type) {
    case FrameType::Full:
      return decode_full(frame.payload);
    case FrameType::Delta:
      if (prev == nullptr) {
        throw WireError(
            "wire: DELTA frame with no base snapshot (a stream must open "
            "with FULL)");
      }
      return apply_delta(frame.payload, *prev);
  }
  throw WireError("wire: unknown frame type");
}

}  // namespace navsep::repl
