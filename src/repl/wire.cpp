#include "repl/wire.hpp"

#include <cstring>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "diff/diff.hpp"

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
  /// Write a u32 placeholder for a count known only after its records;
  /// returns where to patch_u32() it.
  [[nodiscard]] std::size_t count_slot() {
    const std::size_t at = out_.size();
    u32(0);
    return at;
  }
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
      out_[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
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

std::uint64_t mix(std::uint64_t seed, std::string_view field) {
  const std::uint64_t h = std::hash<std::string_view>{}(field);
  return seed ^ (h + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

// The item kinds a record holds and a DELTA script runs over. Each
// writes an item and counts its bytes (kMinBytes at the least), says
// when two items are the same (every field the wire carries), and
// proposes script matches by hash.

struct LineItems {
  static constexpr std::size_t kMinBytes = 4;
  static void write(ByteWriter& w, std::string_view line) { w.str(line); }
  static std::size_t size(std::string_view line) { return 4 + line.size(); }
  static bool same(std::string_view a, std::string_view b) { return a == b; }
  static std::uint64_t hash(std::string_view line) { return mix(0, line); }
};

/// Traversal-bucket arcs: four strings and the traversable byte.
struct BucketItems {
  static constexpr std::size_t kMinBytes = 17;
  static void write(ByteWriter& w, const serve::SnapshotArc& arc) {
    w.str(arc.from);
    w.str(arc.to);
    w.str(arc.arcrole);
    w.str(arc.title);
    w.u8(arc.traversable ? 1 : 0);
  }
  static std::size_t size(const serve::SnapshotArc& arc) {
    return kMinBytes + arc.from.size() + arc.to.size() + arc.arcrole.size() +
           arc.title.size();
  }
  static bool same(const serve::SnapshotArc& a, const serve::SnapshotArc& b) {
    return a == b;
  }
  static std::uint64_t hash(const serve::SnapshotArc& arc) {
    return mix(mix(mix(mix(arc.traversable ? 1 : 0, arc.from), arc.to),
                   arc.arcrole),
               arc.title);
  }
};

/// Overlay-segment arcs: five strings and the ordinal (the source is
/// the segment's). core::arc_hash leaves the ordinal out; this does not.
struct SegmentItems {
  static constexpr std::size_t kMinBytes = 24;
  static void write(ByteWriter& w, const core::NavArc& arc) {
    w.str(arc.from);
    w.str(arc.to);
    w.str(arc.role);
    w.str(arc.title);
    w.str(arc.context);
    w.u32(static_cast<std::uint32_t>(arc.ordinal));
  }
  static std::size_t size(const core::NavArc& arc) {
    return kMinBytes + arc.from.size() + arc.to.size() + arc.role.size() +
           arc.title.size() + arc.context.size();
  }
  static bool same(const core::NavArc& a, const core::NavArc& b) {
    return a == b;
  }
  static std::uint64_t hash(const core::NavArc& arc) {
    return mix(mix(mix(mix(mix(arc.ordinal, arc.from), arc.to), arc.role),
                   arc.title),
               arc.context);
  }
};

serve::SnapshotArc read_snapshot_arc(ByteReader& r) {
  serve::SnapshotArc arc;
  arc.from = std::string(r.str());
  arc.to = std::string(r.str());
  arc.arcrole = std::string(r.str());
  arc.title = std::string(r.str());
  arc.traversable = r.u8() != 0;
  return arc;
}

std::vector<serve::SnapshotArc> read_snapshot_arcs(ByteReader& r) {
  std::vector<serve::SnapshotArc> arcs(r.count(BucketItems::kMinBytes));
  for (serve::SnapshotArc& arc : arcs) arc = read_snapshot_arc(r);
  return arcs;
}

core::NavArc read_nav_arc(ByteReader& r, std::string_view source) {
  core::NavArc arc;
  arc.from = std::string(r.str());
  arc.to = std::string(r.str());
  arc.role = std::string(r.str());
  arc.title = std::string(r.str());
  arc.context = std::string(r.str());
  arc.ordinal = r.u32();
  arc.source = std::string(source);
  return arc;
}

/// A record's items in their whole form: a count, then each item.
template <typename Items, typename Seq>
void write_items(ByteWriter& w, const Seq& items) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) Items::write(w, item);
}

/// The bytes write_items() writes.
template <typename Items, typename Seq>
std::size_t whole_size(const Seq& items) {
  std::size_t bytes = 4;
  for (const auto& item : items) bytes += Items::size(item);
  return bytes;
}

std::vector<core::NavArc> read_nav_arcs(ByteReader& r,
                                        std::string_view source) {
  std::vector<core::NavArc> arcs(r.count(SegmentItems::kMinBytes));
  for (core::NavArc& arc : arcs) arc = read_nav_arc(r, source);
  return arcs;
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

// --- DELTA records: whole, or an edit script ----------------------------------

/// How a DELTA record ships. Artifacts and traversal buckets are Whole or
/// Script (an unchanged one is simply absent); overlay segments may also
/// be Carry.
enum class Form : std::uint8_t {
  Carry = 0,   ///< unchanged: the replica keeps its previous copy
  Whole = 1,   ///< the record in full, as FULL encodes it
  Script = 2,  ///< an edit script against the previous snapshot's record
};

Form read_form(ByteReader& r) {
  const std::uint8_t form = r.u8();
  require(form <= static_cast<std::uint8_t>(Form::Script),
          "unknown record form");
  return static_cast<Form>(form);
}

/// Past this many inserted plus deleted items a record ships whole. The
/// search stops there, which bounds its work on a wholesale rewrite (a
/// kind swap re-authors every arc line of links.xml).
constexpr std::size_t kScriptEditBudget = 512;

/// One step of an edit script: copy `copy_count` base items from
/// `copy_at`, then append the `literal_count` target items from
/// `literal_at`. Copy runs ascend through the base without overlapping.
/// On the wire: copy_at, copy_count, literal_count (u32 each), then the
/// literal items.
struct Run {
  std::size_t copy_at = 0;
  std::size_t copy_count = 0;
  std::size_t literal_at = 0;
  std::size_t literal_count = 0;
};
constexpr std::size_t kRunHeaderBytes = 12;

/// The script turning `base` into `target`, when it exists within
/// kScriptEditBudget edits and, with `header_bytes` ahead of it, is
/// smaller than the record's whole form of `whole_bytes`. Myers matches
/// item hashes; a copy is kept only where the items compare the same.
template <typename Items, typename Seq>
std::optional<std::vector<Run>> plan_script(const Seq& base, const Seq& target,
                                            std::size_t header_bytes,
                                            std::size_t whole_bytes) {
  const auto [prefix, suffix] = diff::common_ends(base, target, Items::same);
  const auto middle_hashes = [prefix, suffix](const Seq& items) {
    std::vector<std::uint64_t> out;
    out.reserve(items.size() - prefix - suffix);
    for (std::size_t i = prefix; i + suffix < items.size(); ++i) {
      out.push_back(Items::hash(items[i]));
    }
    return out;
  };
  const std::optional<std::vector<diff::Match>> middle = diff::myers(
      middle_hashes(base), middle_hashes(target), kScriptEditBudget);
  if (!middle) return std::nullopt;

  std::vector<Run> runs;
  std::size_t placed = 0;  // target items already covered by `runs`
  const auto literals_to = [&](std::size_t end) {
    if (end == placed) return;
    if (runs.empty()) runs.push_back(Run{});
    if (runs.back().literal_count == 0) runs.back().literal_at = placed;
    runs.back().literal_count += end - placed;
    placed = end;
  };
  const auto copy = [&](std::size_t from, std::size_t to, std::size_t count) {
    literals_to(to);
    if (count == 0) return;
    if (runs.empty() || runs.back().literal_count != 0 ||
        runs.back().copy_at + runs.back().copy_count != from) {
      runs.push_back(Run{from, 0, 0, 0});
    }
    runs.back().copy_count += count;
    placed = to + count;
  };
  copy(0, 0, prefix);
  for (const diff::Match& match : *middle) {
    const std::size_t from = prefix + match.a_index;
    const std::size_t to = prefix + match.b_index;
    if (Items::same(base[from], target[to])) copy(from, to, 1);
  }
  copy(base.size() - suffix, target.size() - suffix, suffix);
  literals_to(target.size());

  std::size_t bytes = header_bytes + 4;
  for (const Run& run : runs) {
    bytes += kRunHeaderBytes;
    for (std::size_t i = 0; i < run.literal_count; ++i) {
      bytes += Items::size(target[run.literal_at + i]);
    }
  }
  if (bytes >= whole_bytes) return std::nullopt;
  return runs;
}

template <typename Items, typename Seq>
void write_script(ByteWriter& w, const std::vector<Run>& runs,
                  const Seq& target) {
  w.u32(static_cast<std::uint32_t>(runs.size()));
  for (const Run& run : runs) {
    w.u32(static_cast<std::uint32_t>(run.copy_at));
    w.u32(static_cast<std::uint32_t>(run.copy_count));
    w.u32(static_cast<std::uint32_t>(run.literal_count));
    for (std::size_t i = 0; i < run.literal_count; ++i) {
      Items::write(w, target[run.literal_at + i]);
    }
  }
}

/// Decode one script against a base of `base_size` items: `copy(at, n)`
/// per copy run and `literal()` once per literal item, in target order.
/// A copy run must lie inside the base, after the previous one; a run or
/// literal count must fit the payload left (each literal takes at least
/// `min_item_bytes`). Anything else throws WireError.
template <typename Copy, typename Literal>
void read_script(ByteReader& r, std::size_t base_size,
                 std::size_t min_item_bytes, Copy copy, Literal literal) {
  const std::uint32_t n_runs = r.count(kRunHeaderBytes);
  std::uint64_t base_end = 0;
  for (std::uint32_t i = 0; i < n_runs; ++i) {
    const std::uint64_t at = r.u32();
    const std::uint64_t count = r.u32();
    require(at >= base_end, "script copy run out of order or overlapping");
    require(at + count <= base_size, "script copy run past its base's end");
    copy(static_cast<std::size_t>(at), static_cast<std::size_t>(count));
    base_end = at + count;
    const std::uint32_t n_literals = r.count(min_item_bytes);
    for (std::uint32_t j = 0; j < n_literals; ++j) literal();
  }
}

/// A changed artifact. Against its previous bytes `base` (null for a new
/// path) it ships as a script over lines when that is smaller: the
/// wire_checksum of the bytes it rebuilds, their final-newline bit, then
/// the script. Otherwise the bytes ship whole.
void write_artifact(ByteWriter& w, const std::string* base,
                    const std::string& body) {
  if (base != nullptr) {
    const std::vector<std::string_view> from = diff::split_lines(*base);
    const std::vector<std::string_view> to = diff::split_lines(body);
    constexpr std::size_t kChecksumAndNewline = 8 + 1;
    if (const auto runs = plan_script<LineItems>(
            from, to, kChecksumAndNewline, 4 + body.size())) {
      w.u8(static_cast<std::uint8_t>(Form::Script));
      w.u64(wire_checksum(body));
      w.u8(!body.empty() && body.back() == '\n' ? 1 : 0);
      write_script<LineItems>(w, *runs, to);
      return;
    }
  }
  w.u8(static_cast<std::uint8_t>(Form::Whole));
  w.str(body);
}

std::shared_ptr<const std::string> read_artifact(ByteReader& r,
                                                 const std::string* base,
                                                 std::string_view path) {
  const Form form = read_form(r);
  if (form == Form::Whole) return std::make_shared<const std::string>(r.str());
  require(form == Form::Script, "artifact record cannot carry forward");
  if (base == nullptr) {
    throw WireError("wire: delta scripts artifact '" + std::string(path) +
                    "' the previous snapshot does not hold");
  }
  const std::uint64_t checksum = r.u64();
  const std::uint8_t final_newline = r.u8();
  require(final_newline <= 1, "bad final-newline flag");
  const std::vector<std::string_view> from = diff::split_lines(*base);
  std::vector<std::string_view> lines;
  read_script(
      r, from.size(), LineItems::kMinBytes,
      [&](std::size_t at, std::size_t count) {
        lines.insert(lines.end(), from.begin() + static_cast<std::ptrdiff_t>(at),
                     from.begin() + static_cast<std::ptrdiff_t>(at + count));
      },
      [&] { lines.push_back(r.str()); });
  std::size_t size = final_newline;
  for (std::string_view line : lines) size += line.size() + 1;
  auto body = std::make_shared<std::string>();
  body->reserve(size);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) body->push_back('\n');
    body->append(lines[i]);
  }
  if (final_newline != 0) body->push_back('\n');
  if (wire_checksum(*body) != checksum) {
    throw WireError("wire: scripted artifact '" + std::string(path) +
                    "' misses its checksum (the base is not the origin's)");
  }
  return body;
}

/// A changed arc record — a traversal bucket or an overlay segment (a
/// chunk's arcs): a script over its arcs against `base` (the previous
/// snapshot's record, null when it had none) when that is smaller, else
/// whole. A segment is scripted as one arc sequence, so its authored
/// order, pages interleaved, is rebuilt exactly.
template <typename Items, typename Seq>
void write_arc_record(ByteWriter& w, const Seq* base, const Seq& arcs) {
  if (base != nullptr) {
    if (const auto runs =
            plan_script<Items>(*base, arcs, 0, whole_size<Items>(arcs))) {
      w.u8(static_cast<std::uint8_t>(Form::Script));
      write_script<Items>(w, *runs, arcs);
      return;
    }
  }
  w.u8(static_cast<std::uint8_t>(Form::Whole));
  write_items<Items>(w, arcs);
}

std::vector<serve::SnapshotArc> read_bucket(
    ByteReader& r, const std::vector<serve::SnapshotArc>* base,
    std::string_view from) {
  const Form form = read_form(r);
  if (form == Form::Whole) return read_snapshot_arcs(r);
  require(form == Form::Script, "traversal bucket cannot carry forward");
  if (base == nullptr) {
    throw WireError("wire: delta scripts traversal bucket '" +
                    std::string(from) + "' the previous snapshot does not hold");
  }
  std::vector<serve::SnapshotArc> arcs;
  read_script(
      r, base->size(), BucketItems::kMinBytes,
      [&](std::size_t at, std::size_t count) {
        arcs.insert(arcs.end(), base->begin() + static_cast<std::ptrdiff_t>(at),
                    base->begin() + static_cast<std::ptrdiff_t>(at + count));
      },
      [&] { arcs.push_back(read_snapshot_arc(r)); });
  return arcs;
}

/// Segment `source`'s chunk: the previous snapshot's `base` itself when
/// carried forward, else built from the arcs decoded whole or rebuilt by
/// a script against `base`.
std::shared_ptr<const core::ArcChunk> read_segment(
    ByteReader& r, std::shared_ptr<const core::ArcChunk> base,
    std::string source) {
  const Form form = read_form(r);
  if (form == Form::Whole) {
    std::vector<core::NavArc> arcs = read_nav_arcs(r, source);
    return core::make_arc_chunk(std::move(source), std::move(arcs));
  }
  if (base == nullptr) {
    throw WireError(std::string("wire: delta ") +
                    (form == Form::Carry ? "carries forward" : "scripts") +
                    " segment '" + source +
                    "' the previous snapshot does not hold");
  }
  if (form == Form::Carry) return base;
  std::vector<core::NavArc> arcs;
  arcs.reserve(base->arcs.size());  // a script keeps most arcs
  read_script(
      r, base->arcs.size(), SegmentItems::kMinBytes,
      [&](std::size_t at, std::size_t count) {
        const auto first =
            base->arcs.begin() + static_cast<std::ptrdiff_t>(at);
        arcs.insert(arcs.end(), first,
                    first + static_cast<std::ptrdiff_t>(count));
      },
      [&] { arcs.push_back(read_nav_arc(r, source)); });
  return core::make_arc_chunk(std::move(source), std::move(arcs));
}

}  // namespace

std::uint64_t wire_checksum(std::string_view bytes) noexcept {
  return hash_bytes(bytes);
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
    write_items<BucketItems>(w, arcs);
  }

  w.str(snapshot.structure_source());
  write_families(w, snapshot.overlay_families());
  w.u32(static_cast<std::uint32_t>(snapshot.overlay_arcs().size()));
  for (const std::shared_ptr<const core::ArcChunk>& chunk :
       snapshot.overlay_arcs()) {
    w.str(chunk->source);
    write_items<SegmentItems>(w, chunk->arcs);
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
  const std::uint32_t n_segments = r.count();
  for (std::uint32_t i = 0; i < n_segments; ++i) {
    std::string source(r.str());
    std::vector<core::NavArc> arcs = read_nav_arcs(r, source);
    state.overlays.arcs.push_back(
        core::make_arc_chunk(std::move(source), std::move(arcs)));
  }
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
  std::size_t slot = w.count_slot();
  std::uint32_t n = 0;
  for (const auto& [path, body] : next.files()) {
    auto it = prev.files().find(path);
    const std::string* base =
        it == prev.files().end() ? nullptr : it->second.get();
    if (base != nullptr && (it->second == body || *base == *body)) continue;
    w.str(path);
    write_artifact(w, base, *body);
    ++n;
  }
  w.patch_u32(slot, n);
  slot = w.count_slot();
  n = 0;
  for (const auto& [path, body] : prev.files()) {
    if (!next.files().contains(path)) {
      w.str(path);
      ++n;
    }
  }
  w.patch_u32(slot, n);

  // Traversal buckets, by value equality per from-URI.
  slot = w.count_slot();
  n = 0;
  for (const auto& [from, arcs] : next.traversal_arcs()) {
    auto it = prev.traversal_arcs().find(from);
    const std::vector<serve::SnapshotArc>* base =
        it == prev.traversal_arcs().end() ? nullptr : &it->second;
    if (base != nullptr && *base == arcs) continue;
    w.str(from);
    write_arc_record<BucketItems>(w, base, arcs);
    ++n;
  }
  w.patch_u32(slot, n);
  slot = w.count_slot();
  n = 0;
  for (const auto& [from, arcs] : prev.traversal_arcs()) {
    if (!next.traversal_arcs().contains(from)) {
      w.str(from);
      ++n;
    }
  }
  w.patch_u32(slot, n);

  w.str(next.structure_source());
  write_families(w, next.overlay_families());
  // One segment per chunk. A chunk the previous snapshot holds — the
  // same one, or one equal arc by arc — is carried forward by reference
  // (one byte on the wire); only a changed chunk ships arcs.
  w.u32(static_cast<std::uint32_t>(next.overlay_arcs().size()));
  for (const std::shared_ptr<const core::ArcChunk>& chunk :
       next.overlay_arcs()) {
    w.str(chunk->source);
    const std::shared_ptr<const core::ArcChunk> base =
        core::find_chunk(prev.overlay_arcs(), chunk->source);
    if (base != nullptr && (base == chunk || base->arcs == chunk->arcs)) {
      w.u8(static_cast<std::uint8_t>(Form::Carry));
      continue;
    }
    write_arc_record<SegmentItems>(w, base == nullptr ? nullptr : &base->arcs,
                                   chunk->arcs);
  }
  write_profiles(w, next.profiles());

  // Route tables ride like arc segments: unchanged tables (pointer
  // identity — the engine keeps it across epochs — or value equality as
  // the fallback) cost one carry byte; only a changed table ships.
  const serve::RouteTable* prev_routes = prev.route_table().get();
  const serve::RouteTable* next_routes = next.route_table().get();
  const bool routes_carry =
      prev_routes == next_routes ||
      (prev_routes != nullptr && next_routes != nullptr &&
       *prev_routes == *next_routes);
  w.u8(routes_carry ? 0 : 1);
  if (!routes_carry) write_route_table(w, next_routes);
  return w.take();
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
    const std::string_view path = r.str();
    auto it = prev.files().find(path);
    state.files.insert_or_assign(
        std::string(path),
        read_artifact(r, it == prev.files().end() ? nullptr : it->second.get(),
                      path));
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
    const std::string_view from = r.str();
    auto it = prev.traversal_arcs().find(from);
    state.arcs_by_from.insert_or_assign(
        std::string(from),
        read_bucket(r,
                    it == prev.traversal_arcs().end() ? nullptr : &it->second,
                    from));
  }
  const std::uint32_t n_removed_buckets = r.count();
  for (std::uint32_t i = 0; i < n_removed_buckets; ++i) {
    state.arcs_by_from.erase(std::string(r.str()));
  }

  state.overlays.structure_source = std::string(r.str());
  state.overlays.families = read_families(r);
  // One chunk per segment: the previous snapshot's chunk shared when
  // carried, else built from the decoded or scripted arcs.
  const std::uint32_t n_segments = r.count();
  for (std::uint32_t i = 0; i < n_segments; ++i) {
    std::string source(r.str());
    std::shared_ptr<const core::ArcChunk> base =
        core::find_chunk(prev.overlay_arcs(), source);
    state.overlays.arcs.push_back(
        read_segment(r, std::move(base), std::move(source)));
  }
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
