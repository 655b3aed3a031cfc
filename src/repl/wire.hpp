// Snapshot replication wire format — how a published SiteSnapshot
// travels between processes.
//
// The paper's separation is what makes replication cheap: navigation
// lives in linkbases apart from content, so a context-family edit moves
// kilobytes of authored arcs, never the site. The wire format mirrors
// that asymmetry with two frame kinds over one versioned, checksummed,
// length-prefixed binary framing:
//
//   FULL   — the complete snapshot state (artifact bytes, traversal
//            arc buckets, overlay inputs: structure source, family
//            table, combined arc segments per linkbase source, profile
//            table, route table). Sent on subscribe (mid-stream
//            connect) and on resync when a replica's last-acknowledged
//            epoch lags too far.
//   DELTA  — only what moved between two epochs: artifacts whose bytes
//            changed (or vanished), traversal buckets whose arcs
//            changed, and per-linkbase arc segments whose
//            per-(page, family) slice hashes changed. Unchanged
//            segments are carried forward from the replica's previous
//            snapshot by a one-byte reference. Since v4 a changed
//            record the previous snapshot also holds ships as an edit
//            script against that version — runs of "copy n items from
//            base position i" and literal items, over lines for an
//            artifact (plus its final-newline bit and the wire_checksum
//            of the bytes it rebuilds), over arcs for a bucket or a
//            segment — whenever the script is smaller than the record;
//            a new record or a wholesale rewrite ships whole. Every
//            edit kind therefore ships kilobytes, not the site: a
//            one-arc edit moves a line of links.xml, one arc of its
//            segment and one page's navigation block. The route table
//            rides the same way: one changed-flag byte carries an
//            unchanged table forward from the replica's previous
//            snapshot (pointer or value equality on the publisher),
//            only a changed table ships inline.
//
// Every snapshot carries overlay inputs (an empty arc set at least), so
// since v3 both frame kinds encode them unconditionally: the overlay
// section follows the traversal buckets with no presence flag.
//
// Slice hashes themselves are deliberately NOT on the wire: the decoder
// rebuilds every snapshot through SiteSnapshot::derive_slice_hashes —
// the same combine_arc_slice fold the origin threads from its arc-table
// rebuild — so origin-threaded and replica-derived tables are identical
// by construction (tests/repl_test.cpp pins it) and the wire stays lean.
//
// Framing: a 24-byte header (magic "NSRW", format version, frame type,
// payload length, FNV-1a checksum of the payload) followed by the
// payload. Integers are fixed-width little-endian; strings are
// u32-length-prefixed bytes. Decoding is fully bounds-checked and
// throws repl::WireError on any malformed input — a replica fed garbage
// fails loudly, it never publishes a torn snapshot. A script is checked
// against its base as it applies: each copy run must lie inside the
// base, after the previous one; no count may exceed what the payload
// left could hold; and a rebuilt artifact must match its checksum.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "serve/snapshot.hpp"

namespace navsep::repl {

/// Malformed wire input: bad magic, unsupported version, checksum
/// mismatch, truncated payload, a delta applied against the wrong base
/// snapshot, or an edit script that does not fit its base.
class WireError : public Error {
 public:
  using Error::Error;
};

inline constexpr std::uint32_t kWireMagic = 0x4E535257u;  // "NSRW"
inline constexpr std::uint16_t kWireVersion = 4;  // v4: DELTA edit scripts
inline constexpr std::size_t kFrameHeaderSize = 24;

enum class FrameType : std::uint16_t {
  Full = 1,   ///< complete snapshot state
  Delta = 2,  ///< changes from one epoch to a later one
};

/// Decoded frame header. `payload_size` is the byte count following the
/// header; `checksum` is wire_checksum() of exactly those bytes.
struct FrameHeader {
  std::uint16_t version = kWireVersion;
  FrameType type = FrameType::Full;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
};

/// One framed message: type + raw payload (header already verified).
struct Frame {
  FrameType type = FrameType::Full;
  std::string payload;
};

/// FNV-1a over `bytes` — the frame integrity check.
[[nodiscard]] std::uint64_t wire_checksum(std::string_view bytes) noexcept;

/// Prepend the 24-byte header (magic, version, `type`, length,
/// checksum) to `payload`, returning the complete frame bytes.
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);

/// Decode and validate a frame header (throws WireError on bad magic,
/// version, type, or an absurd payload size). `header_bytes` must be at
/// least kFrameHeaderSize bytes.
[[nodiscard]] FrameHeader decode_frame_header(std::string_view header_bytes);

/// Verify `payload` against `header` (length + checksum); throws
/// WireError on mismatch.
void verify_payload(const FrameHeader& header, std::string_view payload);

/// Parse one complete frame from `bytes` (header + payload, verified).
/// Throws WireError when `bytes` is not exactly one well-formed frame.
[[nodiscard]] Frame parse_frame(std::string_view bytes);

// --- snapshot encodings -------------------------------------------------------

/// Encode `snapshot` as a FULL payload (pass to encode_frame(Full, …)).
[[nodiscard]] std::string encode_full(const serve::SiteSnapshot& snapshot);

/// Encode the change from `prev` to `next` as a DELTA payload. Artifact
/// and traversal-bucket changes are detected by content (shared-handle
/// identity first, bytes second); overlay arc segments are selected by
/// the per-(page, family) slice-hash tables — a segment whose hash table
/// is unchanged is shipped as a carry-forward reference, not bytes. Each
/// changed record ships as an edit script against its `prev` version
/// when that is smaller (src/diff's Myers search, stopped at an edit
/// budget), else whole. `next.epoch()` must exceed `prev.epoch()` and
/// both must share a base.
[[nodiscard]] std::string encode_delta(const serve::SiteSnapshot& prev,
                                       const serve::SiteSnapshot& next);

/// Decode a FULL payload into a fresh snapshot (slice hashes derived).
[[nodiscard]] std::shared_ptr<const serve::SiteSnapshot> decode_full(
    std::string_view payload);

/// Apply a DELTA payload on top of `prev`, producing the next snapshot.
/// Throws WireError when the delta's from-epoch or base does not match
/// `prev` — a delta is only valid against the exact snapshot it was
/// computed from (the resync protocol exists for every other case) —
/// and when a script names a record `prev` lacks, runs outside or
/// backwards through its base, or rebuilds an artifact that misses its
/// checksum. `prev` is never modified; nothing is built from a payload
/// that fails.
[[nodiscard]] std::shared_ptr<const serve::SiteSnapshot> apply_delta(
    std::string_view payload, const serve::SiteSnapshot& prev);

/// Dispatch on `frame.type`: decode_full for Full (prev may be null),
/// apply_delta(prev) for Delta (prev must not be null — throws
/// WireError otherwise).
[[nodiscard]] std::shared_ptr<const serve::SiteSnapshot> apply_frame(
    const Frame& frame,
    const std::shared_ptr<const serve::SiteSnapshot>& prev);

}  // namespace navsep::repl
