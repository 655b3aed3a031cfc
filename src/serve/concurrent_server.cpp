#include "serve/concurrent_server.hpp"

#include <functional>
#include <utility>

#include "common/error.hpp"

namespace navsep::serve {

namespace {

/// What an entry adds to the resident-bytes ledger: its response body
/// (the dominant term; keys, paths, and validity tokens are not).
template <typename V>
std::size_t entry_bytes(const V& value) {
  return value.response.body == nullptr ? 0 : value.response.body->size();
}

}  // namespace

template <typename V>
bool ConcurrentServer::Shard<V>::lookup(const std::string& key, V& out) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(std::string_view(key));
  if (it == cache.end()) return false;
  // Touch: survival under a cap is decided by recency of use.
  recency.splice(recency.begin(), recency, it->second.pos);
  out = it->second.value;
  return true;
}

template <typename V>
void ConcurrentServer::Shard<V>::store(std::string key, V value,
                                       std::size_t cap) {
  if (cap == 0) return;  // pass-through: nothing retained, nothing counted
  const std::size_t new_bytes = entry_bytes(value);
  std::lock_guard<std::mutex> lock(mutex);
  if (auto it = cache.find(std::string_view(key)); it != cache.end()) {
    // Refresh in place (e.g. a stale refill): neither an insertion nor
    // an eviction in the residency ledger — but the byte ledger moves
    // by the size difference.
    resident_bytes -= entry_bytes(it->second.value);
    resident_bytes += new_bytes;
    it->second.value = std::move(value);
    recency.splice(recency.begin(), recency, it->second.pos);
  } else {
    resident_bytes += new_bytes;
    recency.push_front(std::move(key));
    // The map key views the list node's string; list nodes are stable
    // across splices, so the view lives exactly as long as the slot.
    cache.emplace(std::string_view(recency.front()),
                  Slot{std::move(value), recency.begin()});
    ++inserted;
  }
  while (cache.size() > cap) {
    auto victim = std::prev(recency.end());
    auto victim_it = cache.find(std::string_view(*victim));
    resident_bytes -= entry_bytes(victim_it->second.value);
    cache.erase(victim_it);  // before the node dies
    recency.erase(victim);
    ++evicted;
  }
}

template <typename V>
bool ConcurrentServer::Shard<V>::store_if_room(std::string key, V value,
                                               std::size_t cap) {
  if (cap == 0) return false;  // pass-through: never warm
  const std::size_t new_bytes = entry_bytes(value);
  std::lock_guard<std::mutex> lock(mutex);
  if (auto it = cache.find(std::string_view(key)); it != cache.end()) {
    // Refresh a (stale) resident entry in place — its recency position
    // is deliberately NOT touched: a warmed refresh must not outrank
    // entries organic traffic actually used.
    resident_bytes -= entry_bytes(it->second.value);
    resident_bytes += new_bytes;
    it->second.value = std::move(value);
    return true;
  }
  if (cache.size() >= cap) {
    return false;  // admission would force an eviction — keep residents
  }
  resident_bytes += new_bytes;
  // The recency TAIL: a predicted-hot entry starts coldest, so if the
  // prediction was wrong it is the first to go, and it can never push
  // out an entry that earned its place through a real request.
  recency.push_back(std::move(key));
  cache.emplace(std::string_view(recency.back()),
                Slot{std::move(value), std::prev(recency.end())});
  ++inserted;
  return true;
}

template <typename V>
bool ConcurrentServer::Shard<V>::drop(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(std::string_view(key));
  if (it == cache.end()) return false;
  auto pos = it->second.pos;
  resident_bytes -= entry_bytes(it->second.value);
  cache.erase(it);  // before the node dies (the key views into it)
  recency.erase(pos);
  ++evicted;
  return true;
}

ConcurrentServer::ConcurrentServer(const SnapshotStore& store,
                                   std::size_t shards, CacheLimits limits)
    : store_(&store), n_shards_(shards == 0 ? 1 : shards), limits_(limits) {
  std::shared_ptr<const SiteSnapshot> current = store.current();
  if (current == nullptr) {
    throw SemanticError(
        "ConcurrentServer: the snapshot store has no published snapshot "
        "yet (serve the engine first)");
  }
  base_ = current->base();
  shards_ = std::make_unique<BaseShard[]>(n_shards_);
  overlay_shards_ = std::make_unique<OverlayShard[]>(n_shards_);
}

ConcurrentServer::BaseShard& ConcurrentServer::shard_for(
    std::string_view key) const {
  return shards_[std::hash<std::string_view>{}(key) % n_shards_];
}

ConcurrentServer::OverlayShard& ConcurrentServer::overlay_shard_for(
    std::string_view key) const {
  return overlay_shards_[std::hash<std::string_view>{}(key) % n_shards_];
}

site::Response ConcurrentServer::get(std::string_view uri_or_path) const {
  // Fragment stripped, 404s never cached: the cache is bounded by the
  // resource aliases actually requested, not by whatever strings
  // clients probe with.
  std::string key(uri_or_path.substr(0, uri_or_path.find('#')));
  BaseShard& shard = shard_for(key);
  shard.requests.fetch_add(1, std::memory_order_relaxed);

  const std::uint64_t current_epoch = store_->epoch();
  bool was_stale = false;
  Entry cached;
  if (shard.lookup(key, cached)) {
    if (cached.epoch == current_epoch) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return cached.response;
    }
    was_stale = true;  // refilled below, outside the lock
  }

  // Miss or stale: resolve against the snapshot that is current NOW.
  // (It may be newer than current_epoch read above — the entry is then
  // tagged with the newer epoch it was actually resolved from.)
  std::shared_ptr<const SiteSnapshot> snap = store_->current();
  site::Response r = snap->respond(key);
  shard.resolves.fetch_add(1, std::memory_order_relaxed);
  if (!r.ok()) {
    shard.not_found.fetch_add(1, std::memory_order_relaxed);
    if (was_stale) {
      // The path existed in an older epoch but is gone now: retire the
      // stale entry rather than serving it forever.
      (void)shard.drop(key);
    }
    return r;
  }
  if (was_stale) shard.stale_refills.fetch_add(1, std::memory_order_relaxed);
  shard.store(std::move(key), Entry{r, snap->epoch()},
              limits_.base_entries_per_shard);
  return r;
}

site::Response ConcurrentServer::get(std::string_view uri_or_path,
                                     std::string_view profile) const {
  // Overlay keys are (profile, fragment-stripped request); profile names
  // cannot contain '\n' (enforced at registration), so the join is
  // unambiguous.
  std::string request(uri_or_path.substr(0, uri_or_path.find('#')));
  std::string key = std::string(profile) + '\n' + request;
  OverlayShard& shard = overlay_shard_for(key);
  shard.requests.fetch_add(1, std::memory_order_relaxed);

  // Acquire the snapshot FIRST: the entry must be validated against the
  // same site state a refill would be composed from.
  std::shared_ptr<const SiteSnapshot> snap = store_->current();
  const nav::Profile* resolved = snap->find_profile(profile);
  if (resolved == nullptr) {
    throw SemanticError("ConcurrentServer: unknown profile '" +
                        std::string(profile) +
                        "' (register it on the engine first)");
  }

  // Copy the entry out under the lock; validate OUTSIDE it — the
  // validity probe does snapshot lookups and allocates, and holding the
  // shard mutex across that would serialize every request hashing here.
  OverlayEntry cached;
  const bool had_entry = shard.lookup(key, cached);
  OverlayValidity checked;  // current validity for the cached entry's path
  if (had_entry) {
    checked = snap->overlay_validity(*resolved, cached.path);
    if (checked.same_content(cached.validity)) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return cached.response;
    }
    // Invalidated: re-render below.
  }

  std::string path;
  site::Response r = snap->respond_as(*resolved, request, &path);
  if (!r.ok()) {
    shard.not_found.fetch_add(1, std::memory_order_relaxed);
    if (had_entry) (void)shard.drop(key);
    return r;
  }
  shard.resolves.fetch_add(1, std::memory_order_relaxed);
  if (had_entry) {
    shard.stale_refills.fetch_add(1, std::memory_order_relaxed);
  }
  // The stale path already computed this entry's validity (requests
  // almost always resolve to the same site path as before).
  OverlayEntry entry{r, path,
                     had_entry && cached.path == path
                         ? std::move(checked)
                         : snap->overlay_validity(*resolved, path)};
  shard.store(std::move(key), std::move(entry),
              limits_.overlay_entries_per_shard);
  return r;
}

ConcurrentServer::WarmOutcome ConcurrentServer::warm(
    std::string_view uri_or_path, std::string_view profile) const {
  std::string request(uri_or_path.substr(0, uri_or_path.find('#')));
  std::shared_ptr<const SiteSnapshot> snap = store_->current();

  if (profile.empty()) {
    // Base layer: epoch-validated, so "already hot" means an entry
    // resolved against the snapshot that is current right now.
    BaseShard& shard = shard_for(request);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.cache.find(std::string_view(request));
      if (it != shard.cache.end() &&
          it->second.value.epoch == snap->epoch()) {
        return WarmOutcome::AlreadyHot;
      }
    }
    site::Response r = snap->respond(request);
    if (!r.ok()) return WarmOutcome::NotFound;
    const std::uint64_t epoch = snap->epoch();
    return shard.store_if_room(std::move(request), Entry{std::move(r), epoch},
                               limits_.base_entries_per_shard)
               ? WarmOutcome::Warmed
               : WarmOutcome::NoRoom;
  }

  const nav::Profile* resolved = snap->find_profile(profile);
  if (resolved == nullptr) {
    // Advisory, not an error: the popularity feed may name a profile
    // that has since been retired.
    return WarmOutcome::NotFound;
  }
  std::string key = std::string(profile) + '\n' + request;
  OverlayShard& shard = overlay_shard_for(key);
  OverlayEntry cached;
  bool had_entry = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.cache.find(std::string_view(key));
    if (it != shard.cache.end()) {
      had_entry = true;
      cached = it->second.value;
    }
  }
  OverlayValidity checked;
  if (had_entry) {
    checked = snap->overlay_validity(*resolved, cached.path);
    if (checked.same_content(cached.validity)) return WarmOutcome::AlreadyHot;
  }
  std::string path;
  site::Response r = snap->respond_as(*resolved, request, &path);
  if (!r.ok()) return WarmOutcome::NotFound;
  OverlayEntry entry{std::move(r), path,
                     had_entry && cached.path == path
                         ? std::move(checked)
                         : snap->overlay_validity(*resolved, path)};
  return shard.store_if_room(std::move(key), std::move(entry),
                             limits_.overlay_entries_per_shard)
             ? WarmOutcome::Warmed
             : WarmOutcome::NoRoom;
}

namespace {

/// Aggregate one layer's shard array into its symmetric LayerStats.
template <typename ShardT>
ConcurrentServer::LayerStats aggregate_layer(const ShardT* shards,
                                             std::size_t n,
                                             std::size_t entry_cap) {
  ConcurrentServer::LayerStats s;
  s.entry_cap_per_shard = entry_cap;
  for (std::size_t i = 0; i < n; ++i) {
    const ShardT& shard = shards[i];
    {
      // One lock per shard samples the residency ledger coherently:
      // inserted == entries + evicted holds in the aggregate too.
      std::lock_guard<std::mutex> lock(shard.mutex);
      s.entries += shard.cache.size();
      s.inserted += shard.inserted;
      s.evicted += shard.evicted;
      s.resident_bytes += shard.resident_bytes;
    }
    // hits/resolves before requests: per shard, requests >= hits +
    // resolves stays true in the sample.
    s.hits += shard.hits.load(std::memory_order_relaxed);
    s.resolves += shard.resolves.load(std::memory_order_relaxed);
    s.stale_refills += shard.stale_refills.load(std::memory_order_relaxed);
    s.not_found += shard.not_found.load(std::memory_order_relaxed);
    s.requests += shard.requests.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace

ConcurrentServer::UnifiedStats ConcurrentServer::unified_stats() const {
  UnifiedStats s;
  s.base = aggregate_layer(shards_.get(), n_shards_,
                           limits_.base_entries_per_shard);
  s.overlay = aggregate_layer(overlay_shards_.get(), n_shards_,
                              limits_.overlay_entries_per_shard);
  s.epoch = store_->epoch();
  return s;
}

obs::SamplerHandle ConcurrentServer::register_metrics(
    std::shared_ptr<obs::Registry> registry, std::string prefix) const {
  // The sampler captures the registry as a raw pointer on purpose: a
  // shared_ptr capture would make the registry own a closure owning the
  // registry. The SamplerHandle contract already forces the caller to
  // drop the handle before the registry, which bounds the pointer's use.
  obs::Registry* reg = registry.get();
  return reg->add_sampler([this, reg, prefix = std::move(prefix)] {
    const UnifiedStats u = unified_stats();
    const auto layer = [&](const std::string& name, const LayerStats& s) {
      const std::string p = prefix + '.' + name + '.';
      const auto g = [&](const char* field, std::size_t v) {
        reg->gauge(p + field).set(static_cast<std::int64_t>(v));
      };
      g("requests", s.requests);
      g("hits", s.hits);
      g("resolves", s.resolves);
      g("stale_refills", s.stale_refills);
      g("not_found", s.not_found);
      g("entries", s.entries);
      g("inserted", s.inserted);
      g("evicted", s.evicted);
      g("resident_bytes", s.resident_bytes);
    };
    layer("base", u.base);
    layer("overlay", u.overlay);
    reg->gauge(prefix + ".epoch").set(static_cast<std::int64_t>(u.epoch));
  });
}

}  // namespace navsep::serve
