// ConcurrentServer: many-reader GET over the current published snapshot.
//
// The hot path is: probe one cache shard (one striped mutex, held for a
// map lookup + an LRU splice), and on a hit whose epoch is current,
// return the shared response. Misses and stale entries acquire the
// current snapshot (one atomic refcount bump — never a wait on the
// writer) and resolve against it. The cache is N mutex-striped shards,
// so readers on different shards never contend, with per-shard hit/miss
// counters aggregated on unified_stats().
//
// Invalidation is by epoch, not by path: writers publish a whole new
// snapshot, every cached entry carries the epoch it was resolved
// against, and an entry whose epoch lags the store's is refilled on next
// touch. No publication ever blocks a reader, and no reader can observe
// a mix of two epochs in one response.
//
// Both cache layers are bounded: CacheLimits caps the entries each
// shard may hold, evicting least-recently-touched entries past the cap
// (a zero cap degenerates to pass-through — every request resolves
// against the snapshot, nothing is retained). The ROADMAP's
// heavy-traffic north star is why: the overlay layer is keyed by
// (profile, request) and would otherwise grow as profiles × pages.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nav/profile.hpp"
#include "obs/registry.hpp"
#include "serve/snapshot.hpp"
#include "site/server.hpp"

namespace navsep::serve {

/// Per-shard entry caps for the two cache layers. kUnbounded (the
/// default) disables the cap; 0 disables caching entirely
/// (pass-through: correct, just never warm). A server with S shards
/// holds at most S × cap entries per layer.
struct CacheLimits {
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  std::size_t base_entries_per_shard = kUnbounded;
  std::size_t overlay_entries_per_shard = kUnbounded;
};

class ConcurrentServer final : public site::PageService {
 public:
  /// One cache layer's counters, symmetrically named for both layers.
  /// requests >= hits + resolves holds per shard (hits/resolves are
  /// summed before requests), and the residency ledger reconciles
  /// exactly: `inserted == entries + evicted` — inserted counts
  /// first-time key insertions, evicted counts every removal
  /// (LRU-capacity eviction AND staleness retirement of a path that
  /// 404s in the current snapshot); refreshing an existing key in place
  /// is neither. inserted/evicted/entries/resident_bytes are sampled
  /// under each shard's lock, so the ledger balances even while traffic
  /// runs.
  struct LayerStats {
    std::size_t requests = 0;
    std::size_t hits = 0;      ///< served from a valid cached entry
    std::size_t resolves = 0;  ///< resolved/rendered against the snapshot
    std::size_t stale_refills = 0;  ///< resolves replacing an invalid entry
    std::size_t not_found = 0;      ///< 404s
    std::size_t entries = 0;        ///< live entries across shards
    std::size_t inserted = 0;       ///< entries ever added
    std::size_t evicted = 0;        ///< entries ever removed
    std::size_t resident_bytes = 0;  ///< Σ cached response bodies
    /// The configured per-shard cap, echoed (kUnbounded when off).
    std::size_t entry_cap_per_shard = CacheLimits::kUnbounded;
  };

  /// Both layers under one naming scheme. `base` is the epoch-validated
  /// page cache (get(uri)); `overlay` is the profile-scoped layer
  /// (get(uri, profile)), whose entries retire by slice-precise content
  /// validity (serve::OverlayValidity), not by epoch — a publication
  /// that leaves a profile's inputs untouched costs it nothing.
  struct UnifiedStats {
    LayerStats base;
    LayerStats overlay;
    std::uint64_t epoch = 0;  ///< store epoch at sample time
  };

  /// Serve over `store` (which must already have a published snapshot —
  /// the base URI is captured from it; throws navsep::SemanticError when
  /// empty) with `shards` cache shards (clamped to at least 1), each
  /// bounded by `limits`.
  explicit ConcurrentServer(const SnapshotStore& store,
                            std::size_t shards = kDefaultShards,
                            CacheLimits limits = CacheLimits{});

  /// GET against the currently published snapshot. Thread-safe for any
  /// number of concurrent callers, including while a writer publishes.
  [[nodiscard]] site::Response get(std::string_view uri_or_path) const override;

  /// GET as `profile` sees the site (SiteSnapshot::respond_as): the base
  /// page with that profile's navigation block composed late, cached in a
  /// separate striped overlay layer keyed by (profile, request).
  /// Overlay entries are validated slice-precisely
  /// (serve::OverlayValidity: base-bytes handle + per-(page, family)
  /// slice hashes) rather than by epoch: an entry survives any number of
  /// publications until its page's base bytes or one of ITS profile's
  /// arc slices FOR THAT PAGE actually change — so a single family edit
  /// retires only the entries of including profiles on pages the edit
  /// touched. Thread-safe like get(). Throws navsep::SemanticError for
  /// an unregistered profile name.
  [[nodiscard]] site::Response get(std::string_view uri_or_path,
                                   std::string_view profile) const;

  /// What one warm() attempt did (see warm()).
  enum class WarmOutcome {
    Warmed,      ///< rendered and admitted into the cache
    AlreadyHot,  ///< a valid entry was already resident
    NoRoom,      ///< rendered but admission would have evicted someone
    NotFound,    ///< the path 404s (or the profile is unknown)
  };

  /// Predictively render (page, profile) into the cache — the cache
  /// warmer's entry point (serve/cache_warmer.hpp). An empty `profile`
  /// warms the base layer, otherwise the overlay layer. Differences
  /// from get(): traffic counters (requests/hits/resolves) do NOT move
  /// — warming must not pollute organic hit-ratio math; an unknown
  /// profile returns NotFound instead of throwing (the feed may predate
  /// a profile retirement); and insertion is admission-controlled — a
  /// warmed entry is only admitted when it fits the shard's entry cap
  /// WITHOUT evicting anything, and joins at the cold end
  /// of the recency order, so a predicted-hot entry can never displace
  /// one organic traffic actually touched. Thread-safe like get().
  WarmOutcome warm(std::string_view uri_or_path,
                   std::string_view profile = {}) const;

  /// Profiles the currently published snapshot carries.
  [[nodiscard]] std::vector<nav::Profile> profiles() const {
    std::shared_ptr<const SiteSnapshot> snap = store_->current();
    return snap == nullptr ? std::vector<nav::Profile>{} : snap->profiles();
  }

  [[nodiscard]] const std::string& base() const noexcept override {
    return base_;
  }

  /// Pin the currently published snapshot (for session-long consistency:
  /// a behavior that wants one coherent site view across many GETs holds
  /// this and calls snapshot->respond() itself).
  [[nodiscard]] std::shared_ptr<const SiteSnapshot> snapshot() const {
    return store_->current();
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return store_->epoch();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept { return n_shards_; }
  [[nodiscard]] const CacheLimits& limits() const noexcept { return limits_; }

  /// Aggregate the per-shard counters into the symmetric two-layer view
  /// (locks each shard briefly for its residency ledger; counter loads
  /// are ordered per shard, see LayerStats).
  [[nodiscard]] UnifiedStats unified_stats() const;

  /// Register a pull sampler on `registry` that mirrors unified_stats()
  /// into gauges at every Registry::snapshot() — `<prefix>.base.*` and
  /// `<prefix>.overlay.*` with the symmetric LayerStats names, plus
  /// `<prefix>.epoch`. The returned handle unregisters on destruction;
  /// the caller must drop it (or the registry) before this server dies.
  [[nodiscard]] obs::SamplerHandle register_metrics(
      std::shared_ptr<obs::Registry> registry,
      std::string prefix = "serve") const;

  static constexpr std::size_t kDefaultShards = 16;

 private:
  struct Entry {
    site::Response response;
    std::uint64_t epoch = 0;
  };

  /// One profile-scoped cached response: what was served, the site path
  /// the request resolved to, and the validity token it was composed
  /// under (base-bytes handle + slice hashes — see OverlayValidity).
  struct OverlayEntry {
    site::Response response;
    std::string path;
    OverlayValidity validity;
  };

  /// One bounded LRU cache stripe. Counters live with the shard so the
  /// hot path touches exactly one cache line set; alignment keeps shards
  /// from false-sharing each other. The recency list and the residency
  /// ledger (inserted/evicted) mutate only under the mutex; the traffic
  /// counters are atomics bumped outside it.
  template <typename V>
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    /// Keys, most-recently-touched first; map values point into it.
    std::list<std::string> recency;
    struct Slot {
      V value;
      std::list<std::string>::iterator pos;
    };
    std::unordered_map<std::string_view, Slot> cache;
    std::size_t inserted = 0;        // guarded by mutex
    std::size_t evicted = 0;         // guarded by mutex
    std::size_t resident_bytes = 0;  // guarded by mutex; Σ entry bodies
    std::atomic<std::size_t> requests{0};
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> resolves{0};
    std::atomic<std::size_t> stale_refills{0};
    std::atomic<std::size_t> not_found{0};

    /// Copy the entry for `key` out (touching it to the recency front);
    /// false on miss.
    bool lookup(const std::string& key, V& out);

    /// Insert or refresh `key` under `cap` entries (evicting the LRU
    /// tail while the cap is exceeded; a zero cap = pass-through,
    /// nothing retained).
    void store(std::string key, V value, std::size_t cap);

    /// Drop `key` (counted as an eviction — the ledger's "removed for
    /// any reason" side). False when absent.
    bool drop(const std::string& key);

    /// Admission-controlled store for warm(): insert only when the cap
    /// holds WITHOUT evicting (new entries join the recency tail — a
    /// prediction is not a use); refresh an existing key in place.
    /// False when there is no room (or the cap is 0 — pass-through
    /// shards never warm).
    bool store_if_room(std::string key, V value, std::size_t cap);
  };

  using BaseShard = Shard<Entry>;
  using OverlayShard = Shard<OverlayEntry>;

  [[nodiscard]] BaseShard& shard_for(std::string_view key) const;
  [[nodiscard]] OverlayShard& overlay_shard_for(std::string_view key) const;

  const SnapshotStore* store_;
  std::string base_;
  std::size_t n_shards_;
  CacheLimits limits_;
  std::unique_ptr<BaseShard[]> shards_;
  std::unique_ptr<OverlayShard[]> overlay_shards_;
};

}  // namespace navsep::serve
