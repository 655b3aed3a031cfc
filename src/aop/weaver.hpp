// The weaver: runtime composition of aspects with base behavior.
//
// Base code executes a join point by calling Weaver::execute(jp, payload,
// base). The weaver finds every matching rule of every enabled aspect and
// builds the execution chain:
//
//     before(1) ... before(n)
//     around(1){ around(2){ ... base ... } }     (outermost = highest
//     after(n) ... after(1)                       precedence, then rule order)
//
// Matching is cached per distinct join-point shape (kind + subject +
// instance + tags), which the fig6 benchmark shows amortizes the DSL cost
// to a hash lookup.
#pragma once

#include <any>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aop/aspect.hpp"

namespace navsep::aop {

/// Counters exposed for tests and the fig6 bench.
struct WeaverStats {
  std::size_t join_points_executed = 0;
  std::size_t advice_invocations = 0;
  std::size_t match_cache_hits = 0;
  std::size_t match_cache_misses = 0;
};

class Weaver {
 public:
  /// Register an aspect (shared so callers may keep configuring it).
  /// Aspects are enabled on registration.
  void register_aspect(std::shared_ptr<Aspect> aspect);

  /// Register `aspect`, first dropping any registered aspect with the
  /// same name — for concerns that are swapped wholesale, like the
  /// navigation aspect when the access structure changes.
  void replace_aspect(std::shared_ptr<Aspect> aspect);

  /// Enable/disable by name; returns false for unknown aspects.
  bool set_enabled(std::string_view name, bool enabled);
  [[nodiscard]] bool is_enabled(std::string_view name) const;

  [[nodiscard]] std::vector<std::string> aspect_names() const;

  /// Execute `base` at join point `jp`, running matching advice around it.
  /// `payload` is passed to the advice (may be nullptr → an empty payload
  /// is substituted).
  void execute(const JoinPoint& jp, std::any* payload,
               const std::function<void()>& base);

  /// Convenience for join points with no payload.
  void execute(const JoinPoint& jp, const std::function<void()>& base) {
    execute(jp, nullptr, base);
  }

  [[nodiscard]] const WeaverStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Drop the match cache (done automatically when aspects change).
  void invalidate_cache() noexcept { cache_.clear(); }

  /// Disable/enable the match cache (ablation: every execute() re-matches
  /// all pointcuts). Enabled by default.
  void set_cache_enabled(bool enabled) noexcept {
    cache_enabled_ = enabled;
    if (!enabled) invalidate_cache();
  }
  [[nodiscard]] bool cache_enabled() const noexcept { return cache_enabled_; }

 private:
  struct Registered {
    std::shared_ptr<Aspect> aspect;
    bool enabled = true;
    /// Aspect::revision() when we last (in)validated — aspects are shared
    /// and callers may keep adding rules after registration; execute()
    /// compares and drops the match cache on drift.
    std::size_t seen_revision = 0;
  };

  /// Drop the match cache if any registered aspect gained rules since the
  /// last dispatch. Only called between top-level dispatches: a nested
  /// execute() (advice composing another page) must not clear the cached
  /// MatchSet its caller is still iterating.
  void refresh_revisions();

  /// Advice matched for one join-point shape, pre-sorted for execution.
  struct MatchSet {
    std::vector<const AdviceRule*> before;
    std::vector<const AdviceRule*> around;  // outermost first
    std::vector<const AdviceRule*> after;   // execution order (reversed)
    bool empty() const noexcept {
      return before.empty() && around.empty() && after.empty();
    }
  };

  [[nodiscard]] std::string cache_key(const JoinPoint& jp) const;
  [[nodiscard]] const MatchSet& match(const JoinPoint& jp);
  [[nodiscard]] MatchSet compute_match(const JoinPoint& jp) const;

  std::vector<Registered> aspects_;
  std::map<std::string, MatchSet, std::less<>> cache_;
  WeaverStats stats_;
  bool cache_enabled_ = true;
  std::size_t execute_depth_ = 0;
};

}  // namespace navsep::aop
