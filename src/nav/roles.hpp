// Role-segregated navigation interfaces — the public face of navsep.
//
// The paper separates navigation from content; this header separates the
// *consumers* of navigation from each other (Interface Segregation). The
// old surface tangled three audiences into two god classes
// (site::Browser, site::HypermediaServer); each audience now gets exactly
// the members it uses:
//
//   Navigating  — what 98% of callers need: follow links, move.
//   SessionView — read-only observation: history, counters.
//
// The third audience, the framework (weaving hooks, arc tables,
// mutations), uses nav::Engine (pipeline.hpp) directly: it has exactly
// one implementation, so it states its contracts on its own members.
//
// site::Browser keeps its concrete API (existing code and tests are
// untouched); BrowserSession (session.hpp) adapts it to both roles.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace navsep::xlink {
struct Arc;
}

namespace navsep::nav {

/// The end-user role: actuate XLink arcs and move through the site.
class Navigating {
 public:
  virtual ~Navigating() = default;

  /// Fetch a URI (absolute, or resolved against the current location /
  /// site base). `false` on 404.
  virtual bool navigate(std::string_view uri_ref) = 0;

  /// Actuate one arc (show=none / actuate=none arcs are refused).
  virtual bool follow(const xlink::Arc& arc) = 0;

  /// Follow the first outgoing arc whose arcrole is `role` (with or
  /// without the "nav:" prefix).
  virtual bool follow_role(std::string_view role) = 0;

  virtual bool back() = 0;
  virtual bool forward() = 0;

  [[nodiscard]] virtual const std::string& location() const noexcept = 0;
  [[nodiscard]] virtual const std::string* page() const noexcept = 0;

  /// Arcs leaving the current resource, linkbase order.
  [[nodiscard]] virtual const std::vector<const xlink::Arc*>& links()
      const noexcept = 0;
};

/// The observer role: read-only session state. Dashboards, tests and
/// audit aspects consume this; nothing here can mutate the session.
class SessionView {
 public:
  virtual ~SessionView() = default;

  /// Every location navigated to, in order.
  [[nodiscard]] virtual const std::vector<std::string>& history()
      const noexcept = 0;
  [[nodiscard]] virtual std::size_t pages_visited() const noexcept = 0;

  /// Base-layer counters of the engine's server() (GETs and 404s). These
  /// are engine-global: the server is shared, so every consumer (this
  /// session, open_browser() browsers, direct server().get() calls)
  /// contributes to them.
  [[nodiscard]] virtual std::size_t requests() const noexcept = 0;
  [[nodiscard]] virtual std::size_t misses() const noexcept = 0;
};

}  // namespace navsep::nav
