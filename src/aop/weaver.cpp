#include "aop/weaver.hpp"

#include <algorithm>

namespace navsep::aop {

void Weaver::register_aspect(std::shared_ptr<Aspect> aspect) {
  const std::size_t revision = aspect->revision();
  aspects_.push_back(Registered{std::move(aspect), true, revision});
  invalidate_cache();
}

void Weaver::replace_aspect(std::shared_ptr<Aspect> aspect) {
  // Swap in place so the aspect keeps its position in the advice
  // execution order relative to other registered aspects.
  for (auto& r : aspects_) {
    if (r.aspect->name() == aspect->name()) {
      r.seen_revision = aspect->revision();
      r.aspect = std::move(aspect);
      r.enabled = true;
      invalidate_cache();
      return;
    }
  }
  register_aspect(std::move(aspect));
}

void Weaver::refresh_revisions() {
  bool drifted = false;
  for (auto& r : aspects_) {
    if (r.aspect->revision() != r.seen_revision) {
      r.seen_revision = r.aspect->revision();
      drifted = true;
    }
  }
  if (drifted) invalidate_cache();
}

bool Weaver::set_enabled(std::string_view name, bool enabled) {
  for (auto& r : aspects_) {
    if (r.aspect->name() == name) {
      if (r.enabled != enabled) {
        r.enabled = enabled;
        invalidate_cache();
      }
      return true;
    }
  }
  return false;
}

bool Weaver::is_enabled(std::string_view name) const {
  for (const auto& r : aspects_) {
    if (r.aspect->name() == name) return r.enabled;
  }
  return false;
}

std::vector<std::string> Weaver::aspect_names() const {
  std::vector<std::string> out;
  out.reserve(aspects_.size());
  for (const auto& r : aspects_) out.push_back(r.aspect->name());
  return out;
}

std::string Weaver::cache_key(const JoinPoint& jp) const {
  // Tags participate in matching (within()/tag()), so they are part of the
  // shape. std::map iteration gives deterministic key text.
  std::string key(to_string(jp.kind));
  key += '\x1f';
  key += jp.subject;
  key += '\x1f';
  key += jp.instance;
  for (const auto& [k, v] : jp.tags) {
    key += '\x1f';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

Weaver::MatchSet Weaver::compute_match(const JoinPoint& jp) const {
  // Collect (precedence, registration order, rule order) sorted rules.
  struct Hit {
    int precedence;
    std::size_t aspect_order;
    std::size_t rule_order;
    const AdviceRule* rule;
  };
  std::vector<Hit> hits;
  for (std::size_t ai = 0; ai < aspects_.size(); ++ai) {
    const Registered& r = aspects_[ai];
    if (!r.enabled) continue;
    const auto& rules = r.aspect->rules();
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      if (rules[ri].pointcut.matches(jp)) {
        hits.push_back(Hit{r.aspect->precedence(), ai, ri, &rules[ri]});
      }
    }
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.precedence != b.precedence) return a.precedence > b.precedence;
    if (a.aspect_order != b.aspect_order) return a.aspect_order < b.aspect_order;
    return a.rule_order < b.rule_order;
  });

  MatchSet out;
  for (const Hit& h : hits) {
    switch (h.rule->kind) {
      case AdviceKind::Before: out.before.push_back(h.rule); break;
      case AdviceKind::Around: out.around.push_back(h.rule); break;
      case AdviceKind::After: out.after.push_back(h.rule); break;
    }
  }
  // After advice runs in reverse precedence order (like stack unwinding).
  std::reverse(out.after.begin(), out.after.end());
  return out;
}

const Weaver::MatchSet& Weaver::match(const JoinPoint& jp) {
  std::string key = cache_key(jp);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++stats_.match_cache_hits;
    return it->second;
  }
  ++stats_.match_cache_misses;
  return cache_.emplace(std::move(key), compute_match(jp)).first->second;
}

/// Bumps/restores the weaver's dispatch depth across advice execution
/// (advice may throw; the depth must unwind with the stack).
class DepthGuard {
 public:
  explicit DepthGuard(std::size_t& depth) noexcept : depth_(depth) {
    ++depth_;
  }
  ~DepthGuard() { --depth_; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;

 private:
  std::size_t& depth_;
};

void Weaver::execute(const JoinPoint& jp, std::any* payload,
                     const std::function<void()>& base) {
  ++stats_.join_points_executed;
  // Revision drift (rules added to a registered aspect) is only acted on
  // between top-level dispatches: a nested execute() reached from advice
  // must not invalidate the MatchSet its caller is iterating. Rules added
  // mid-dispatch therefore take effect from the next top-level dispatch —
  // and never relocate (Aspect stores rules in a deque).
  if (execute_depth_ == 0) refresh_revisions();
  DepthGuard guard(execute_depth_);
  // With the cache disabled (ablation mode) every dispatch re-matches all
  // pointcuts into a local set, which stays valid across nested executes.
  MatchSet uncached;
  if (!cache_enabled_) {
    ++stats_.match_cache_misses;
    uncached = compute_match(jp);
  }
  const MatchSet& m = cache_enabled_ ? match(jp) : uncached;
  std::any empty;
  std::any* pl = payload != nullptr ? payload : &empty;

  if (m.empty()) {
    if (base) base();
    return;
  }

  for (const AdviceRule* rule : m.before) {
    ++stats_.advice_invocations;
    JoinPointContext ctx(jp, pl, {});
    rule->body(ctx);
  }

  // Around chain: recursive lambda over the around list, base innermost.
  std::function<void(std::size_t)> run_around = [&](std::size_t i) {
    if (i >= m.around.size()) {
      if (base) base();
      return;
    }
    ++stats_.advice_invocations;
    JoinPointContext ctx(jp, pl, [&, i] { run_around(i + 1); });
    m.around[i]->body(ctx);
  };
  run_around(0);

  for (const AdviceRule* rule : m.after) {
    ++stats_.advice_invocations;
    JoinPointContext ctx(jp, pl, {});
    rule->body(ctx);
  }
}

}  // namespace navsep::aop
