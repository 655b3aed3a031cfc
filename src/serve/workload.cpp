#include "serve/workload.hpp"

#include <bit>
#include <chrono>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "core/navigation_aspect.hpp"
#include "nav/pipeline.hpp"
#include "site/session.hpp"

namespace navsep::serve {

std::string_view to_string(Behavior b) noexcept {
  switch (b) {
    case Behavior::RandomSurfer: return "random_surfer";
    case Behavior::GuidedTour: return "guided_tour";
    case Behavior::ContextSwitcher: return "context_switcher";
    case Behavior::Kiosk: return "kiosk";
    case Behavior::ProfileMix: return "profile_mix";
  }
  return "unknown";
}

// --- LatencyHistogram ---------------------------------------------------------

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  std::size_t bucket = ns == 0 ? 0 : static_cast<std::size_t>(
                                         std::bit_width(ns) - 1);
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  ++counts_[bucket];
  ++count_;
  total_ns_ += ns;
  if (ns > max_ns_) max_ns_ = ns;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  total_ns_ += other.total_ns_;
  if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
}

std::uint64_t LatencyHistogram::quantile_ns(double q) const noexcept {
  const double v = obs::log2_interpolated_quantile(counts_.data(), kBuckets,
                                                   count_, max_ns_, q);
  return static_cast<std::uint64_t>(v + 0.5);
}

// --- session behaviors --------------------------------------------------------

namespace {

namespace hm = navsep::hypermedia;

struct SessionOutcome {
  std::size_t steps = 0;
  std::size_t requests = 0;
  std::size_t failures = 0;
  LatencyHistogram latency;

  // Trace capture: null ring = off (the default — zero cost on the
  // request path). The ring is single-writer: this session's thread is
  // the only writer, the aggregator reads only after join.
  obs::TraceRing* ring = nullptr;
  std::uint32_t sample_every = 1;
  std::uint64_t sample_clock = 0;
  const ConcurrentServer* server = nullptr;  ///< epoch stamps for events
  std::string profile;  ///< profile lens of this session, "" for base
};

/// Record one navigation step into the session's ring, honoring the
/// sampling stride. `from`/`role` say how the session arrived at `to`
/// ("" = direct entry / re-seed jump, i.e. no arc was followed).
void maybe_trace(SessionOutcome& out, std::string_view from,
                 std::string_view to, std::string_view role,
                 std::uint64_t latency_ns, bool ok) {
  if (out.ring == nullptr) return;
  if (out.sample_clock++ % out.sample_every != 0) return;
  obs::TraceEvent event;
  event.from = std::string(from);
  event.to = std::string(to);
  event.role = std::string(role);
  event.profile = out.profile;
  event.epoch = out.server != nullptr ? out.server->epoch() : 0;
  event.latency_ns = latency_ns;
  event.ok = ok;
  out.ring->record(std::move(event));
}

/// One timed GET; returns ok. `from`/`role` describe the arc the
/// session followed to reach `uri` (trace capture only — "" when the
/// session jumped there directly).
bool timed_get(const ConcurrentServer& server, std::string_view uri,
               SessionOutcome& out, std::string_view from = {},
               std::string_view role = {}) {
  const auto t0 = std::chrono::steady_clock::now();
  site::Response r = server.get(uri);
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  out.latency.record(ns);
  ++out.requests;
  if (!r.ok()) ++out.failures;
  maybe_trace(out, from, uri, role, ns, r.ok());
  return r.ok();
}

/// Per-session cache of a snapshot's .html page list, rebuilt only when
/// the epoch moves: sessions re-seed from it whenever a mutation retired
/// the page they stood on, and an O(site) walk must not sit on the
/// measured request path of every re-seed.
class PageIndex {
 public:
  const std::vector<std::string>& pages(const SiteSnapshot& snap) {
    if (!filled_ || epoch_ != snap.epoch()) {
      filled_ = true;
      epoch_ = snap.epoch();
      pages_.clear();
      for (std::string& path : snap.paths()) {
        if (path.size() > 5 && path.rfind(".html") == path.size() - 5) {
          pages_.push_back(std::move(path));
        }
      }
    }
    return pages_;
  }

 private:
  bool filled_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<std::string> pages_;
};

/// A random .html path from the current snapshot. Falls back to
/// `fallback` when the snapshot has none.
std::string random_page(PageIndex& index, const SiteSnapshot& snap, Rng& rng,
                        const std::string& fallback) {
  const std::vector<std::string>& pages = index.pages(snap);
  return pages.empty() ? fallback : rng.pick(pages);
}

void run_random_surfer(const ConcurrentServer& server,
                       const std::string& entry_path, Rng& rng,
                       std::size_t steps, SessionOutcome& out) {
  PageIndex index;
  std::string location = entry_path;
  std::string from;  // where the last followed arc left from
  std::string role;  // and its role ("" = jumped, no arc)
  for (std::size_t i = 0; i < steps; ++i) {
    ++out.steps;
    std::shared_ptr<const SiteSnapshot> snap = server.snapshot();
    if (!timed_get(server, location, out, from, role)) {
      location = random_page(index, *snap, rng, entry_path);
      from.clear();
      role.clear();
      continue;
    }
    const std::vector<SnapshotArc>& arcs = snap->outgoing(location);
    std::vector<const SnapshotArc*> traversable;
    traversable.reserve(arcs.size());
    for (const SnapshotArc& arc : arcs) {
      if (arc.traversable) traversable.push_back(&arc);
    }
    if (traversable.empty()) {
      location = random_page(index, *snap, rng, entry_path);
      from.clear();
      role.clear();
    } else {
      const SnapshotArc* arc = rng.pick(traversable);
      from = location;
      role = arc->arcrole;
      location = arc->to;
    }
  }
}

/// Walk next/prev role arcs out of the published linkbases — the tour as
/// the served site actually links it. Used by GuidedTour sessions when
/// the engine has no context families configured.
void run_arc_tour(const ConcurrentServer& server,
                  const std::string& entry_path, Rng& rng, std::size_t steps,
                  SessionOutcome& out) {
  PageIndex index;
  std::string location = entry_path;
  std::string from;
  std::string role;
  for (std::size_t i = 0; i < steps; ++i) {
    ++out.steps;
    std::shared_ptr<const SiteSnapshot> snap = server.snapshot();
    if (!timed_get(server, location, out, from, role)) {
      location = random_page(index, *snap, rng, entry_path);
      from.clear();
      role.clear();
      continue;
    }
    const bool forward = !rng.chance(0.2);
    const SnapshotArc* arc =
        snap->outgoing_with_role(location, forward ? "next" : "prev");
    if (arc == nullptr && forward) {
      arc = snap->outgoing_with_role(location, "up");
    }
    if (arc != nullptr) {
      from = location;
      role = arc->arcrole;
      location = arc->to;
    } else {
      location = random_page(index, *snap, rng, entry_path);
      from.clear();
      role.clear();
    }
  }
}

/// Pick a random non-empty context of a random family; enter it at a
/// random member. Returns false when no family has members.
bool enter_random_context(
    site::NavigationSession& session,
    const std::vector<const hm::ContextFamily*>& families, Rng& rng) {
  for (std::size_t attempt = 0; attempt < 8; ++attempt) {
    const hm::ContextFamily* family = rng.pick(families);
    if (family->contexts().empty()) continue;
    const hm::NavigationalContext& ctx =
        family->contexts()[rng.below(family->contexts().size())];
    if (ctx.node_ids().empty()) continue;
    const std::string& node = ctx.node_ids()[rng.below(ctx.size())];
    if (session.enter_context(family->name(), ctx.name(), node)) return true;
  }
  return false;
}

void fetch_current(const ConcurrentServer& server,
                   const site::NavigationSession& session,
                   SessionOutcome& out, std::string_view from = {},
                   std::string_view role = {}) {
  if (session.current() == nullptr) return;
  (void)timed_get(server, core::default_href_for(session.current()->id()),
                  out, from, role);
}

/// Served path of the session's current node — only materialized when
/// tracing is on (it feeds the next event's `from`).
std::string trace_location(const SessionOutcome& out,
                           const site::NavigationSession& session) {
  if (out.ring == nullptr || session.current() == nullptr) return {};
  return core::default_href_for(session.current()->id());
}

void run_guided_tour(const ConcurrentServer& server,
                     const hm::NavigationalModel& model,
                     const std::vector<const hm::ContextFamily*>& families,
                     const std::string& entry_path, Rng& rng,
                     std::size_t steps, SessionOutcome& out) {
  if (families.empty()) {
    run_arc_tour(server, entry_path, rng, steps, out);
    return;
  }
  site::NavigationSession session(model, families, /*weaver=*/nullptr);
  if (!enter_random_context(session, families, rng)) {
    run_arc_tour(server, entry_path, rng, steps, out);
    return;
  }
  std::string from;
  std::string role;
  for (std::size_t i = 0; i < steps; ++i) {
    ++out.steps;
    fetch_current(server, session, out, from, role);
    const std::string here = trace_location(out, session);
    const bool forward = !rng.chance(0.2);
    const bool moved = forward ? session.next() : session.prev();
    if (moved) {
      from = here;
      role = forward ? "next" : "prev";
    } else {
      // Hit an end of the tour: start over in another context.
      from.clear();
      role.clear();
      session.leave_context();
      if (!enter_random_context(session, families, rng)) return;
    }
  }
}

void run_context_switcher(
    const ConcurrentServer& server, const hm::NavigationalModel& model,
    const std::vector<const hm::ContextFamily*>& families,
    const std::string& entry_path, Rng& rng, std::size_t steps,
    SessionOutcome& out) {
  if (families.empty()) {
    run_random_surfer(server, entry_path, rng, steps, out);
    return;
  }
  site::NavigationSession session(model, families, /*weaver=*/nullptr);
  if (!enter_random_context(session, families, rng)) {
    run_random_surfer(server, entry_path, rng, steps, out);
    return;
  }
  std::string from;
  std::string role;
  for (std::size_t i = 0; i < steps; ++i) {
    ++out.steps;
    fetch_current(server, session, out, from, role);
    const std::string here = trace_location(out, session);
    if (rng.chance(0.3)) {
      // The paper's §2 move: keep the node, re-reach it through another
      // family — "next" now means something different.
      const hm::ContextFamily* family = rng.pick(families);
      if (session.through(family->name())) {
        from = here;
        role = "through";
        continue;
      }
      from.clear();
      role.clear();
      if (!enter_random_context(session, families, rng)) return;
      continue;
    }
    const bool forward = rng.chance(0.8);
    if (forward ? session.next() : session.prev()) {
      from = here;
      role = forward ? "next" : "prev";
    } else {
      from.clear();
      role.clear();
      if (!enter_random_context(session, families, rng)) return;
    }
  }
}

/// One timed profile-scoped GET; returns ok.
bool timed_profile_get(const ConcurrentServer& server, std::string_view uri,
                       const std::string& profile, SessionOutcome& out,
                       std::string_view from = {},
                       std::string_view role = {}) {
  const auto t0 = std::chrono::steady_clock::now();
  site::Response r = server.get(uri, profile);
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  out.latency.record(ns);
  ++out.requests;
  if (!r.ok()) ++out.failures;
  maybe_trace(out, from, uri, role, ns, r.ok());
  return r.ok();
}

/// The profile-pinned session: every fetch goes through the overlay
/// layer as `profile_name`, and movement follows the arcs that profile
/// actually sees — the structure's plus its families' tours.
void run_profile_mix(const ConcurrentServer& server,
                     const std::string& profile_name,
                     const std::string& entry_path, Rng& rng,
                     std::size_t steps, SessionOutcome& out) {
  PageIndex index;
  std::string location = entry_path;
  std::string from;
  std::string role;
  for (std::size_t i = 0; i < steps; ++i) {
    ++out.steps;
    std::shared_ptr<const SiteSnapshot> snap = server.snapshot();
    if (!timed_profile_get(server, location, profile_name, out, from, role)) {
      location = random_page(index, *snap, rng, entry_path);
      from.clear();
      role.clear();
      continue;
    }
    // The profile is always present: profile_names came from a snapshot
    // no newer than `snap`, and profiles are never removed (the get()
    // above would already have thrown otherwise).
    const navsep::nav::Profile* profile = snap->find_profile(profile_name);
    std::vector<const core::NavArc*> arcs =
        snap->profile_arcs(location, *profile);
    if (arcs.empty()) {
      location = random_page(index, *snap, rng, entry_path);
      from.clear();
      role.clear();
    } else {
      const core::NavArc* arc = rng.pick(arcs);
      from = location;
      role = arc->role;
      location = core::default_href_for(arc->to);
    }
  }
}

void run_kiosk(const ConcurrentServer& server,
               const std::vector<std::string>& seed_nodes,
               const std::string& entry_path, Rng& rng, std::size_t steps,
               SessionOutcome& out) {
  // A kiosk profile is pinned to a short personalized playlist (cf.
  // core::UserProfile::suppress_tours — it never follows tour arcs).
  std::vector<std::string> playlist{entry_path};
  std::vector<std::string> pool = seed_nodes;
  rng.shuffle(pool);
  for (std::size_t i = 0; i < pool.size() && playlist.size() < 5; ++i) {
    playlist.push_back(core::default_href_for(pool[i]));
  }
  PageIndex index;
  for (std::size_t i = 0; i < steps; ++i) {
    ++out.steps;
    std::string& slot = playlist[i % playlist.size()];
    if (!timed_get(server, slot, out)) {
      // The playlist entry was retired by a mutation: swap in a page
      // that exists in the current epoch.
      slot = random_page(index, *server.snapshot(), rng, entry_path);
    }
  }
}

}  // namespace

// --- Workload -----------------------------------------------------------------

Workload::Workload(const nav::Engine& engine) : engine_(&engine) {
  entry_path_ = core::default_href_for(engine.structure().entry());
  for (const hm::Member& member : engine.structure().members()) {
    if (engine.navigation().node(member.node_id) != nullptr) {
      seed_nodes_.push_back(member.node_id);
    }
  }
}

WorkloadResult Workload::run(const WorkloadOptions& options) {
  ConcurrentServer server(engine_->snapshots());
  return run(server, options);
}

WorkloadResult Workload::run(ConcurrentServer& server,
                             const WorkloadOptions& options) {
  static constexpr Behavior kAll[] = {
      Behavior::RandomSurfer, Behavior::GuidedTour, Behavior::ContextSwitcher,
      Behavior::Kiosk, Behavior::ProfileMix};
  // The behavior default stays the four profile-less models: ProfileMix
  // is opt-in (it needs registered profiles to mean anything).
  static constexpr Behavior kDefaults[] = {
      Behavior::RandomSurfer, Behavior::GuidedTour, Behavior::ContextSwitcher,
      Behavior::Kiosk};
  std::vector<Behavior> behaviors = options.behaviors;
  if (behaviors.empty()) {
    behaviors.assign(std::begin(kDefaults), std::end(kDefaults));
  }

  // Profile assignment for ProfileMix sessions: round-robin over the
  // profile table of the snapshot current at launch.
  std::vector<std::string> profile_names;
  for (const navsep::nav::Profile& p : server.profiles()) {
    profile_names.push_back(p.name);
  }

  std::vector<const hm::ContextFamily*> families;
  families.reserve(engine_->context_families().size());
  for (const hm::ContextFamily& f : engine_->context_families()) {
    families.push_back(&f);
  }

  const std::size_t threads = options.threads == 0 ? 1 : options.threads;
  std::vector<SessionOutcome> outcomes(threads);

  // One ring per session, owned here: each session thread is its ring's
  // only writer; the aggregation below reads them only after join.
  std::vector<std::unique_ptr<obs::TraceRing>> rings;
  if (options.trace.enabled) {
    rings.reserve(threads);
    const std::uint32_t stride =
        options.trace.sample_every == 0 ? 1 : options.trace.sample_every;
    for (std::size_t t = 0; t < threads; ++t) {
      rings.push_back(
          std::make_unique<obs::TraceRing>(options.trace.ring_capacity));
      outcomes[t].ring = rings.back().get();
      outcomes[t].sample_every = stride;
      // Stagger the sampling phase per session (deterministically, from
      // the same stream the session rng seeds from). A zero phase for
      // every session would sample step 0 of every session regardless of
      // stride — the popularity tables would over-count session entry
      // pages, exactly the signal landmark synthesis and cache warming
      // consume.
      outcomes[t].sample_clock =
          (options.seed ^ (0x9e3779b97f4a7c15ull * (t + 1))) % stride;
      outcomes[t].server = &server;
    }
  }

  std::vector<std::thread> pool;
  pool.reserve(threads);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    const Behavior behavior = behaviors[t % behaviors.size()];
    pool.emplace_back([&, t, behavior] {
      // Distinct deterministic stream per session: same options, same
      // per-session request sequence, run to run.
      Rng rng(options.seed ^ (0x9e3779b97f4a7c15ull * (t + 1)));
      SessionOutcome& out = outcomes[t];
      switch (behavior) {
        case Behavior::RandomSurfer:
          run_random_surfer(server, entry_path_, rng,
                            options.steps_per_session, out);
          break;
        case Behavior::GuidedTour:
          run_guided_tour(server, engine_->navigation(), families,
                          entry_path_, rng, options.steps_per_session, out);
          break;
        case Behavior::ContextSwitcher:
          run_context_switcher(server, engine_->navigation(), families,
                               entry_path_, rng, options.steps_per_session,
                               out);
          break;
        case Behavior::Kiosk:
          run_kiosk(server, seed_nodes_, entry_path_, rng,
                    options.steps_per_session, out);
          break;
        case Behavior::ProfileMix:
          if (profile_names.empty()) {
            run_random_surfer(server, entry_path_, rng,
                              options.steps_per_session, out);
          } else {
            // Round-robin over the ProfileMix sessions themselves (they
            // are every behaviors.size()-th t), not the global thread
            // index — t % profiles would correlate with the behavior
            // slot and starve profiles in mixed-behavior runs.
            const std::string& profile =
                profile_names[(t / behaviors.size()) % profile_names.size()];
            out.profile = profile;
            run_profile_mix(server, profile, entry_path_, rng,
                            options.steps_per_session, out);
          }
          break;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  WorkloadResult result;
  result.sessions = threads;
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  std::array<BehaviorTally, std::size(kAll)> tallies;
  for (std::size_t b = 0; b < std::size(kAll); ++b) {
    tallies[b].behavior = kAll[b];
  }
  for (std::size_t t = 0; t < threads; ++t) {
    const SessionOutcome& out = outcomes[t];
    result.steps += out.steps;
    result.requests += out.requests;
    result.failures += out.failures;
    result.latency.merge(out.latency);
    BehaviorTally& tally =
        tallies[static_cast<std::size_t>(behaviors[t % behaviors.size()])];
    ++tally.sessions;
    tally.requests += out.requests;
    tally.failures += out.failures;
    tally.latency.merge(out.latency);
  }
  for (const BehaviorTally& tally : tallies) {
    if (tally.sessions > 0) result.by_behavior.push_back(tally);
  }
  for (const auto& ring : rings) result.traces.absorb(*ring);
  result.throughput_rps =
      result.seconds > 0.0
          ? static_cast<double>(result.requests) / result.seconds
          : 0.0;
  result.server = server.unified_stats();

  if (options.telemetry != nullptr) {
    obs::Registry& reg = *options.telemetry;
    reg.counter("workload.sessions").add(result.sessions);
    reg.counter("workload.steps").add(result.steps);
    reg.counter("workload.requests").add(result.requests);
    reg.counter("workload.failures").add(result.failures);
    reg.counter("workload.traces.recorded").add(result.traces.recorded);
    reg.counter("workload.traces.dropped").add(result.traces.dropped);
    const auto absorb = [&reg](std::string_view name,
                               const LatencyHistogram& h) {
      reg.histogram(name).absorb(h.buckets().data(), h.buckets().size(),
                                 h.count(), h.total_ns(), h.max_ns());
    };
    absorb("workload.latency", result.latency);
    for (const BehaviorTally& tally : result.by_behavior) {
      absorb(std::string("workload.latency.") +
                 std::string(to_string(tally.behavior)),
             tally.latency);
    }
  }
  return result;
}

}  // namespace navsep::serve
