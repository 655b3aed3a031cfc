// Epoch-published site snapshots — the read side of concurrent serving.
//
// The paper's asymmetry is that navigation can be re-authored without
// touching page content; the serving runtime mirrors it: writers
// (nav::Engine mutations) produce a NEW immutable SiteSnapshot and
// publish it atomically, readers acquire whichever snapshot is current
// and keep it alive by refcount for as long as they read. Nobody blocks:
// a reader mid-request on epoch N is untouched by the publication of
// N+1; the last reader to drop N frees it (RCU with shared_ptr as the
// grace period).
//
// A snapshot is fully self-contained: it shares the artifact bytes with
// the VirtualSite it was taken from (cheap — refcount bumps, no copies)
// and materializes the traversal graph's arcs as owned strings, so no
// pointer in a snapshot reaches into engine state a writer might rebuild.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/navigation_aspect.hpp"
#include "nav/profile.hpp"
#include "nav/route.hpp"
#include "site/server.hpp"
#include "site/virtual_site.hpp"
#include "xlink/traversal.hpp"

/// Whether SnapshotStore may use std::atomic<std::shared_ptr> (see the
/// member declaration for why ThreadSanitizer builds must not).
#if defined(__SANITIZE_THREAD__)
#define NAVSEP_ATOMIC_SHARED_PTR 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NAVSEP_ATOMIC_SHARED_PTR 0
#endif
#endif
#ifndef NAVSEP_ATOMIC_SHARED_PTR
#if defined(__cpp_lib_atomic_shared_ptr)
#define NAVSEP_ATOMIC_SHARED_PTR 1
#else
#define NAVSEP_ATOMIC_SHARED_PTR 0
#endif
#endif

namespace navsep::serve {

/// One navigation arc of a snapshot, materialized by value (no pointers
/// into linkbase DOMs — those are writer-owned and rebuilt under the
/// readers' feet). URIs are normalized and absolute.
struct SnapshotArc {
  std::string from;
  std::string to;
  std::string arcrole;  // e.g. "nav:next"
  std::string title;
  bool traversable = true;  // false for show=none / actuate=none arcs

  friend bool operator==(const SnapshotArc&, const SnapshotArc&) = default;
};

/// Per-page content hashes of one linkbase's arc slice: site path of the
/// page the arcs leave → hash of those arcs' rendered-relevant fields
/// (from/to/role/title/context, in slice order). Absent pages have an
/// empty slice (kEmptySliceHash).
using PageSliceHashes = std::map<std::string, std::uint64_t, std::less<>>;

/// Slice hashes for every linkbase source: NavArc::source → per-page
/// hashes. Produced by the engine's arc-table rebuild (the same pass
/// that feeds the build graph's per-page slice nodes) and shared into
/// every published snapshot.
using SourceSliceHashes = std::map<std::string, PageSliceHashes, std::less<>>;

/// Hash of a slice no arc contributes to (a page the linkbase never
/// mentions). Distinct from kUnknownSliceHash so "family exists, page
/// has no arcs" never aliases "family unknown to this snapshot".
inline constexpr std::uint64_t kEmptySliceHash = 0x9e3779b97f4a7c15ull;

/// Hash standing in for a linkbase/family this snapshot doesn't know.
inline constexpr std::uint64_t kUnknownSliceHash = 0xc2b2ae3d27d4eb4full;

/// One arc's content hash over the fields a render reads
/// (from/to/role/title/context). THE per-arc hash: the engine's arc
/// table and every slice hash fold it, so the two can never drift.
[[nodiscard]] std::uint64_t arc_hash(const core::NavArc& arc) noexcept;

/// Fold one arc into a slice hash (order-sensitive — slice order is
/// render order): hash_combine(slice, arc_hash(arc)). The engine's
/// arc-table rebuild and the snapshot's fallback both fold through it.
[[nodiscard]] std::uint64_t combine_arc_slice(std::uint64_t slice,
                                              const core::NavArc& arc) noexcept;

/// The route programs a snapshot knows, as published by the engine and
/// shipped on the replication wire. AOT programs are informational here
/// (their expansion already rides the combined arc set as an ordinary
/// family); Lazy programs are what SiteSnapshot expands and memoizes on
/// first touch. `titles` exports the engine's node-id → title mapping —
/// the only navigational-model fact linkbase authoring consumes — so a
/// replica can synthesize byte-identical route linkbases without the
/// model.
struct RouteTable {
  struct Entry {
    nav::RouteProgram program;
    std::string source;  ///< its linkbase's site path ("links-<name>.xml")

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::vector<Entry> entries;  ///< in registration order
  std::map<std::string, std::string, std::less<>> titles;

  friend bool operator==(const RouteTable&, const RouteTable&) = default;
};

/// The navigation-overlay inputs a snapshot carries beyond the site
/// bytes: the combined authored arc set (with per-linkbase provenance in
/// NavArc::source), which linkbase belongs to which context family, and
/// the registered serving profiles. The engine fills this at publish
/// time; default inputs are an empty arc set, under which every profile
/// is served the base bytes.
struct SnapshotOverlayInputs {
  /// Combined arc set in weave order (structure linkbase first, then each
  /// family linkbase) — shared with the engine's arc table, immutable
  /// once published. Null means an empty set.
  std::shared_ptr<const std::vector<core::NavArc>> arcs;

  /// NavArc::source value of the access structure's own linkbase.
  std::string structure_source{site::kStructureLinkbasePath};

  struct Family {
    std::string name;    ///< context family name ("ByAuthor")
    std::string source;  ///< its linkbase's site path / NavArc::source
  };
  std::vector<Family> families;  ///< in engine (weave) order

  std::vector<nav::Profile> profiles;  ///< registered at capture time

  /// Per-(linkbase, page) slice hashes, threaded from the engine's
  /// arc-table rebuild. When null the snapshot derives them itself from
  /// `arcs` (same combine_arc_slice fold, so the result is identical).
  std::shared_ptr<const SourceSliceHashes> slice_hashes;

  /// Registered route programs (null when none) — shared with the engine
  /// and carried verbatim onto the replication wire.
  std::shared_ptr<const RouteTable> routes;
};

/// What one cached overlay response depends on, slice-precise: the
/// page's base bytes (a shared content handle — artifacts are swapped,
/// never mutated, so pointer identity is content identity), plus content
/// hashes of exactly the arc slices the overlay composes from — the
/// structure's arcs leaving THIS page and each profile family's arcs
/// leaving THIS page, in profile order. A family edit therefore retires
/// only entries whose rendered navigation actually changed: pages whose
/// (page, family) slice the edit never touched keep hitting, as do all
/// entries of profiles excluding the family. profile_token pins the
/// profile's family list itself, so replacing a profile by name can
/// never revalidate an entry composed under the old definition.
///
/// Hash equality stands in for content equality — the same convention
/// (and the same 2⁻⁶⁴ collision budget) as the build graph's early
/// cutoff, which already gates page re-weaves on these hashes.
struct OverlayValidity {
  std::shared_ptr<const std::string> base_body;
  std::uint64_t profile_token = 0;    ///< hash of the profile's family list
  std::uint64_t structure_slice = 0;  ///< structure arcs leaving the page
  std::vector<std::uint64_t> family_slices;  ///< per profile family

  [[nodiscard]] bool same_content(const OverlayValidity& other) const {
    return base_body == other.base_body &&
           profile_token == other.profile_token &&
           structure_slice == other.structure_slice &&
           family_slices == other.family_slices;
  }
};

/// A snapshot's logical content as plain data — what the replication
/// wire format carries and a replica reconstructs a SiteSnapshot from
/// without ever holding the origin's VirtualSite or TraversalGraph.
/// Also the introspection shape the encoder reads (SiteSnapshot::
/// files() / traversal_arcs() / overlay accessors return views of
/// exactly these members).
struct SnapshotState {
  std::string base;
  std::uint64_t epoch = 0;
  std::map<std::string, std::shared_ptr<const std::string>, std::less<>> files;
  std::map<std::string, std::vector<SnapshotArc>, std::less<>> arcs_by_from;
  SnapshotOverlayInputs overlays;
};

/// An immutable, refcounted view of one published site state. Never
/// mutated after construction — every member function is safe to call
/// from any number of threads.
class SiteSnapshot {
 public:
  /// Capture `site` + `graph` as published epoch `epoch` under `base`
  /// (slash-terminated), carrying `overlays`: the per-family arc slices
  /// and the profile table that make respond_as() compose
  /// profile-scoped navigation overlays. Artifact bytes are shared, arcs
  /// are copied out by value.
  SiteSnapshot(const site::VirtualSite& site, const xlink::TraversalGraph& graph,
               std::string base, std::uint64_t epoch,
               SnapshotOverlayInputs overlays = {});

  /// Reconstruct a snapshot from decoded wire state (the replica path —
  /// see src/repl/). Behaves exactly like a captured snapshot: when
  /// `state.overlays.slice_hashes` is null the hashes are derived here
  /// via derive_slice_hashes(), so a decoded snapshot always carries
  /// slice hashes regardless of what the origin threaded.
  explicit SiteSnapshot(SnapshotState state);

  /// THE derive-when-absent path, explicit: fold every arc into its
  /// (source, page) slice through combine_arc_slice — the same fold the
  /// engine's arc-table rebuild uses to thread hashes into snapshots, so
  /// origin-threaded and locally-derived tables can never drift
  /// (asserted in tests/repl_test.cpp). Used whenever
  /// SnapshotOverlayInputs.slice_hashes is null.
  [[nodiscard]] static std::shared_ptr<const SourceSliceHashes>
  derive_slice_hashes(const std::vector<core::NavArc>& arcs);

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const std::string& base() const noexcept { return base_; }

  [[nodiscard]] std::size_t size() const noexcept { return files_.size(); }
  [[nodiscard]] bool contains(std::string_view path) const {
    return files_.find(path) != files_.end();
  }
  [[nodiscard]] std::vector<std::string> paths() const;

  /// Content of one site path (null when absent). The handle keeps the
  /// bytes alive past this snapshot's retirement.
  [[nodiscard]] std::shared_ptr<const std::string> body(
      std::string_view path) const;

  /// GET semantics over the snapshot: absolute URI (under base) or
  /// site-relative path, fragment ignored; 404 on anything else. When
  /// `resolved_path` is non-null and the response is 200, receives the
  /// site path the request resolved to.
  [[nodiscard]] site::Response respond(
      std::string_view uri_or_path,
      std::string* resolved_path = nullptr) const;

  /// Arcs leaving the resource at `uri` (absolute or site-relative;
  /// normalized before lookup), linkbase document order. Empty when none.
  [[nodiscard]] const std::vector<SnapshotArc>& outgoing(
      std::string_view uri) const;

  /// First outgoing arc with the given arcrole ("next" or "nav:next"),
  /// null when absent.
  [[nodiscard]] const SnapshotArc* outgoing_with_role(
      std::string_view uri, std::string_view role) const;

  // --- profile-scoped navigation overlays -------------------------------------

  /// Profiles registered when this snapshot was captured.
  [[nodiscard]] const std::vector<nav::Profile>& profiles() const noexcept {
    return profiles_;
  }

  /// Profile by name, null when unknown.
  [[nodiscard]] const nav::Profile* find_profile(
      std::string_view name) const noexcept;

  /// GET as `profile` sees the site: page responses carry that profile's
  /// navigation block (the access structure's arcs plus the profile
  /// families' labeled tour groups) composed late onto the once-woven
  /// base page; contextual linkbases outside the profile 404 (a full
  /// build for the profile would not author them). Byte-identical to a
  /// full single-threaded build with SiteBuildOptions{context_families =
  /// profile.families, weave_context_tours = true}. Throws
  /// navsep::SemanticError for a profile name this snapshot doesn't know.
  [[nodiscard]] site::Response respond_as(
      std::string_view profile_name, std::string_view uri_or_path,
      std::string* resolved_path = nullptr) const;

  /// As above with the profile already resolved (via find_profile) —
  /// the serving hot path uses this to avoid a second name lookup.
  /// `profile` must be one of this snapshot's profiles().
  [[nodiscard]] site::Response respond_as(
      const nav::Profile& profile, std::string_view uri_or_path,
      std::string* resolved_path = nullptr) const;

  /// The arcs `profile` composes onto the page at `path` (a site path):
  /// structure arcs first, then each profile family's slice, in profile
  /// order — pointers into the shared combined arc set. Empty when none.
  [[nodiscard]] std::vector<const core::NavArc*> profile_arcs(
      std::string_view path, const nav::Profile& profile) const;

  /// The validity token of an overlay response for (profile, path): the
  /// base-bytes handle plus the slice hashes the response composes from
  /// (see OverlayValidity). Null base_body when the path is absent.
  [[nodiscard]] OverlayValidity overlay_validity(const nav::Profile& profile,
                                                 std::string_view path) const;

  // --- introspection (the replication encoder's view) -------------------------

  /// Every artifact as (site path → shared bytes) — the map respond()
  /// serves from.
  [[nodiscard]] const std::map<std::string, std::shared_ptr<const std::string>,
                               std::less<>>&
  files() const noexcept {
    return files_;
  }

  /// The materialized traversal arcs, bucketed by normalized source URI
  /// in linkbase document order — the map outgoing() reads.
  [[nodiscard]] const std::map<std::string, std::vector<SnapshotArc>,
                               std::less<>>&
  traversal_arcs() const noexcept {
    return arcs_by_from_;
  }

  /// The combined authored arc set (weave order, NavArc::source
  /// provenance); never null (empty when no arcs were published).
  [[nodiscard]] const std::shared_ptr<const std::vector<core::NavArc>>&
  overlay_arcs() const noexcept {
    return overlay_arcs_;
  }

  /// NavArc::source of the access structure's own linkbase.
  [[nodiscard]] const std::string& structure_source() const noexcept {
    return structure_source_;
  }

  /// The context families this snapshot partitions overlay arcs by
  /// (name + linkbase source), in weave order.
  [[nodiscard]] std::vector<SnapshotOverlayInputs::Family> overlay_families()
      const;

  /// The per-(linkbase, page) slice hash table — never null, whether
  /// threaded from the engine or derived.
  [[nodiscard]] const std::shared_ptr<const SourceSliceHashes>& slice_hashes()
      const noexcept {
    return slice_hashes_;
  }

  /// The route programs this snapshot was published with (null when
  /// none) — what the replication encoder ships.
  [[nodiscard]] const std::shared_ptr<const RouteTable>& route_table()
      const noexcept {
    return route_table_;
  }

 private:
  /// Per-linkbase slice: the arcs of one source, bucketed by the site
  /// path of the page they leave (core::default_href_for(from)).
  using ArcSlice =
      std::map<std::string, std::vector<const core::NavArc*>, std::less<>>;

  struct FamilySlice {
    std::string name;    // family name ("ByAuthor")
    std::string source;  // linkbase site path ("links-byauthor.xml")
    ArcSlice arcs_by_page;
    /// This source's per-page slice hashes (into slice_hashes_, which
    /// pins them); null when the source authored no arcs at all.
    const PageSliceHashes* hashes = nullptr;
  };

  /// Compose the overlay response body for a 200 page under `profile`
  /// (the splice of the late-rendered navigation block into the base
  /// bytes). Returns the base handle itself when the overlay output is
  /// byte-identical to it.
  [[nodiscard]] std::shared_ptr<const std::string> overlay_body(
      std::string_view path, const std::shared_ptr<const std::string>& base,
      const nav::Profile& profile) const;

  /// A lazily expanded route program: the synthesized linkbase text plus
  /// its arcs bucketed per page — everything a FamilySlice offers, owned
  /// by the memo entry (profile_arcs hands out pointers into `arcs`,
  /// which the snapshot keeps alive in route_slices_).
  struct RouteSlice {
    std::string name;
    std::string source;
    std::uint64_t token = 0;                  // nav::route_token(program)
    std::shared_ptr<const std::string> text;  // the authored linkbase doc
    std::vector<core::NavArc> arcs;           // in authored order
    ArcSlice arcs_by_page;                    // pointers into `arcs`
    PageSliceHashes hashes;
  };

  /// The Lazy-compiled route named `name`, expanded on first touch and
  /// memoized for this snapshot's lifetime; null when no such route.
  /// Thread-safe (the serve path calls it concurrently); expansion is a
  /// pure function of immutable snapshot state, so a duplicate race
  /// computes identical slices and the first insert wins.
  [[nodiscard]] std::shared_ptr<const RouteSlice> lazy_route_slice(
      std::string_view name) const;

  /// The shared tail of every constructor: bucket the combined arc set
  /// per (linkbase, page), resolve (or derive) the slice-hash table, and
  /// wire the per-family hash pointers.
  void init_overlays(SnapshotOverlayInputs overlays);

  std::uint64_t epoch_;
  std::string base_;             // slash-terminated, as served
  std::string normalized_base_;  // uri::normalize(base_)
  std::map<std::string, std::shared_ptr<const std::string>, std::less<>>
      files_;
  std::map<std::string, std::vector<SnapshotArc>, std::less<>> arcs_by_from_;

  // Overlay state.
  std::string structure_source_{site::kStructureLinkbasePath};
  std::shared_ptr<const std::vector<core::NavArc>> overlay_arcs_;
  std::shared_ptr<const SourceSliceHashes> slice_hashes_;
  const PageSliceHashes* structure_hashes_ = nullptr;  // into slice_hashes_
  ArcSlice structure_arcs_by_page_;
  std::vector<FamilySlice> families_;
  std::vector<nav::Profile> profiles_;
  std::shared_ptr<const RouteTable> route_table_;

  // Lazy route memo: route name → expanded slice, filled on first touch.
  // The only mutable state in a snapshot; guarded because readers share
  // the snapshot across threads. Entries are immutable once inserted.
  mutable std::mutex route_mutex_;
  mutable std::map<std::string, std::shared_ptr<const RouteSlice>,
                   std::less<>>
      route_slices_;
};

/// The publication point between one writer and many readers. publish()
/// installs a new snapshot atomically; current() acquires the installed
/// one with a single atomic refcount bump — no reader ever waits on a
/// writer re-weaving the site, and no reader can observe a torn site:
/// it holds either the old epoch or the new one, never a mix.
///
/// Writers must be externally serialized (the engine's single-writer
/// mutation contract); readers need no synchronization at all.
class SnapshotStore {
 public:
  /// Install `snapshot` as current. Its epoch must exceed the installed
  /// one (throws navsep::SemanticError otherwise — epochs are the cache
  /// staleness signal and must move forward).
  void publish(std::shared_ptr<const SiteSnapshot> snapshot);

  /// Acquire the current snapshot (null before the first publish). The
  /// returned handle pins the snapshot: it stays valid however many
  /// epochs are published afterwards.
  [[nodiscard]] std::shared_ptr<const SiteSnapshot> current() const;

  /// Epoch of the current snapshot without acquiring it (0 before the
  /// first publish) — the cheap staleness probe response caches use.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// How many snapshots have ever been published here. The probe behind
  /// the batching contract: a K-edit batch commit moves this by exactly
  /// one (epochs could in principle skip, so tests count publications,
  /// not epoch deltas).
  [[nodiscard]] std::uint64_t publishes() const noexcept {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
#if NAVSEP_ATOMIC_SHARED_PTR
  std::atomic<std::shared_ptr<const SiteSnapshot>> current_;
#else
  // Fallback: the deprecated-but-present free-function atomics over
  // shared_ptr (a pooled-mutex implementation). Taken pre-C++20-library,
  // and under ThreadSanitizer: libstdc++'s lock-free atomic<shared_ptr>
  // guards its pointer with an embedded spin bit TSan does not model as
  // a lock, so the lock-free branch reports phantom races on
  // publish/current pairs. Same semantics either way.
  std::shared_ptr<const SiteSnapshot> current_;
#endif
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> publishes_{0};
};

}  // namespace navsep::serve
