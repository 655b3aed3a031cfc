// Multi-session traffic driver over the concurrent serving runtime.
//
// The ROADMAP's "heavy traffic" has to come from somewhere: Workload
// spawns K threads, each simulating one user session with a distinct
// behavior model over the published site snapshots:
//
//   RandomSurfer    — follows a uniformly random traversable arc leaving
//                     the current page (the classic surfer model);
//   GuidedTour      — enters a navigational context and walks it with
//                     next/prev (mostly forward, occasionally back);
//   ContextSwitcher — hops between context families with through():
//                     reach Guernica by author, re-reach it by movement,
//                     continue there (the paper's §2 scenario, at load);
//   Kiosk           — a personalized profile restricted to a fixed
//                     playlist of pages (tours suppressed, cf.
//                     core::UserProfile::suppress_tours), cycling them.
//
// Every page fetch goes through a ConcurrentServer and is timed into a
// log-scaled latency histogram; sessions tolerate mid-run site mutations
// (a 404 after an epoch change re-seeds the session from the current
// snapshot) — concurrent linkbase edits are part of the workload, not a
// failure.
//
// Thread-safety contract: reader sessions touch ONLY the ConcurrentServer,
// the snapshots it serves, and the engine's navigational model / context
// families (which mutations never rebuild). They never touch the
// engine's weaver, site, or structure — those belong to the single
// writer thread. The engine's own server() reads the same published
// snapshots and is as safe to use alongside them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/concurrent_server.hpp"

namespace navsep::nav {
class Engine;
}

namespace navsep::serve {

enum class Behavior {
  RandomSurfer,
  GuidedTour,
  ContextSwitcher,
  Kiosk,
  /// Profile-scoped traffic: each session pins one registered
  /// nav::Profile (round-robin over the snapshot's profile table) and
  /// fetches every page through ConcurrentServer::get(uri, profile),
  /// walking the structure's arcs plus the profile families' tour arcs —
  /// the overlay cache under multi-audience load. Falls back to
  /// RandomSurfer when no profile is registered.
  ProfileMix,
};

[[nodiscard]] std::string_view to_string(Behavior b) noexcept;

/// Log₂-bucketed latency counts: bucket i holds samples in
/// [2^i, 2^(i+1)) nanoseconds. Cheap enough to sit on the per-request
/// path, mergeable across threads, quantile-answerable to within a
/// factor of 2 — all a traffic sweep needs.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t ns) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t total_ns() const noexcept { return total_ns_; }
  [[nodiscard]] std::uint64_t max_ns() const noexcept { return max_ns_; }
  [[nodiscard]] double mean_ns() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(total_ns_) /
                             static_cast<double>(count_);
  }

  /// The q-quantile sample (q in [0,1]), interpolated linearly within
  /// its log2 bucket's [2^i, 2^(i+1)) range by rank and clamped to the
  /// observed maximum — not the bucket's upper bound, which would
  /// overstate a quantile landing just past a boundary by up to 2x.
  /// 0 when empty.
  [[nodiscard]] std::uint64_t quantile_ns(double q) const noexcept;

  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets()
      const noexcept {
    return counts_;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

struct WorkloadOptions {
  /// Concurrent sessions (threads). Each runs its own Rng stream.
  std::size_t threads = 4;

  /// Navigation steps per session; every step issues at least one GET.
  std::size_t steps_per_session = 256;

  /// Behaviors assigned round-robin to sessions. Empty = all four.
  std::vector<Behavior> behaviors;

  std::uint64_t seed = 42;

  /// Navigation trace capture (obs/trace.hpp). Off by default; when
  /// enabled each session records every `trace.sample_every`-th step
  /// into its own single-writer ring, folded into
  /// WorkloadResult::traces after the sessions join.
  obs::TraceConfig trace;

  /// Optional metrics registry. When set, the run exports its
  /// counters, per-behavior latency histograms
  /// (`workload.latency.<behavior>`), and trace tallies into it after
  /// the sessions join — nothing touches the registry on the request
  /// path.
  std::shared_ptr<obs::Registry> telemetry;
};

struct BehaviorTally {
  Behavior behavior = Behavior::RandomSurfer;
  std::size_t sessions = 0;
  std::size_t requests = 0;
  std::size_t failures = 0;  ///< 404s (expected under concurrent edits)
  LatencyHistogram latency;  ///< this behavior's sessions only
};

struct WorkloadResult {
  std::size_t sessions = 0;
  std::size_t steps = 0;
  std::size_t requests = 0;
  std::size_t failures = 0;
  double seconds = 0.0;
  double throughput_rps = 0.0;  ///< requests / seconds
  LatencyHistogram latency;
  ConcurrentServer::UnifiedStats server;  ///< sampled after the run
  std::vector<BehaviorTally> by_behavior;
  obs::TraceAggregate traces;  ///< empty unless options.trace.enabled
};

/// The session pool. Construct it BEFORE any concurrent writer starts
/// mutating the engine (construction reads the access structure once to
/// seed session entry points; after that, only writer-immutable engine
/// state is touched) — then run() may overlap freely with engine
/// mutations on another thread.
class Workload {
 public:
  explicit Workload(const nav::Engine& engine);

  /// Drive `options.threads` sessions over a private ConcurrentServer.
  [[nodiscard]] WorkloadResult run(const WorkloadOptions& options = {});

  /// Drive the sessions over a caller-owned server (sharing its cache
  /// and counters with other traffic).
  [[nodiscard]] WorkloadResult run(ConcurrentServer& server,
                                   const WorkloadOptions& options = {});

 private:
  const nav::Engine* engine_;
  std::string entry_path_;               ///< served path of the entry page
  std::vector<std::string> seed_nodes_;  ///< member node ids at capture time
};

}  // namespace navsep::serve
