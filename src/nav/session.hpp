// BrowserSession: the thin adapter that presents one site::Browser (and
// the concurrent server it reads published epochs through) through the
// role-segregated interfaces.
//
// Browser itself stays a plain concrete class — existing call sites and
// tests are untouched — while new code programs against nav::Navigating /
// nav::SessionView and never sees the framework surface.
#pragma once

#include "nav/roles.hpp"
#include "serve/concurrent_server.hpp"
#include "site/browser.hpp"

namespace navsep::nav {

class BrowserSession final : public Navigating, public SessionView {
 public:
  /// Both referents must outlive the session (the engine guarantees this
  /// for sessions it hands out).
  BrowserSession(site::Browser& browser,
                 const serve::ConcurrentServer& server) noexcept
      : browser_(&browser), server_(&server) {}

  // --- Navigating -------------------------------------------------------------

  bool navigate(std::string_view uri_ref) override {
    return browser_->navigate(uri_ref);
  }
  bool follow(const xlink::Arc& arc) override { return browser_->follow(arc); }
  bool follow_role(std::string_view role) override {
    return browser_->follow_role(role);
  }
  bool back() override { return browser_->back(); }
  bool forward() override { return browser_->forward(); }
  [[nodiscard]] const std::string& location() const noexcept override {
    return browser_->location();
  }
  [[nodiscard]] const std::string* page() const noexcept override {
    return browser_->page();
  }
  [[nodiscard]] const std::vector<const xlink::Arc*>& links()
      const noexcept override {
    return browser_->links();
  }

  // --- SessionView ------------------------------------------------------------

  [[nodiscard]] const std::vector<std::string>& history()
      const noexcept override {
    return browser_->history();
  }
  [[nodiscard]] std::size_t pages_visited() const noexcept override {
    return browser_->pages_visited();
  }
  [[nodiscard]] std::size_t requests() const noexcept override {
    return server_->unified_stats().base.requests;
  }
  [[nodiscard]] std::size_t misses() const noexcept override {
    return server_->unified_stats().base.not_found;
  }

 private:
  site::Browser* browser_;
  const serve::ConcurrentServer* server_;
};

}  // namespace navsep::nav
