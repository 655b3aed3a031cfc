// An in-process hypermedia server over a VirtualSite.
//
// Deliberately minimal HTTP semantics: GET by absolute URI or
// site-relative path, 200/404 statuses, content types inferred from the
// extension, and request counters. Enough for the browser and the
// benchmarks; no sockets (see DESIGN.md non-goals).
//
// HypermediaServer is a stateless resolver: every GET normalizes the
// URI and looks the path up in the site as it is now, so there is no
// response cache to keep in step with site edits. It is the paper-scale
// substrate (one site, no writer) and the tests' independent reference
// server; the engine serves its published epochs through
// serve::ConcurrentServer instead. The const surface is safe for
// concurrent readers of a site nobody is editing; the counters are
// atomics. Response bodies share ownership with the site
// (std::shared_ptr), so a response handed to a caller stays readable
// even after the path is removed or replaced.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "site/virtual_site.hpp"

namespace navsep::site {

struct Response {
  int status = 404;
  std::string content_type;
  /// Shares ownership of the served content: reading through a held
  /// Response is safe even if the site entry is concurrently replaced or
  /// removed (the old bytes stay alive until the last holder lets go).
  /// Null on 404.
  std::shared_ptr<const std::string> body;

  [[nodiscard]] bool ok() const noexcept { return status == 200; }
};

/// The minimal consumer-facing serving surface: what a browser (or any
/// other page consumer) needs, implemented both by the single-site
/// HypermediaServer below and by serve::ConcurrentServer over published
/// snapshots. Implementations must keep get() safe for concurrent
/// callers.
class PageService {
 public:
  virtual ~PageService() = default;

  /// GET by absolute URI (fragment ignored) or site-relative path.
  [[nodiscard]] virtual Response get(std::string_view uri_or_path) const = 0;

  /// Slash-terminated base URI the service resolves relative paths under.
  [[nodiscard]] virtual const std::string& base() const noexcept = 0;
};

/// Strip `uri_or_path` down to the site path it addresses under
/// `normalized_base` (a uri::normalize()d, slash-terminated base URI).
/// Fragments are dropped; absolute URIs outside the base yield nullopt.
/// Shared by HypermediaServer and the snapshot resolver so the two can
/// never disagree on what a request means.
[[nodiscard]] std::optional<std::string> site_path_under(
    std::string_view uri_or_path, std::string_view normalized_base);

class HypermediaServer final : public PageService {
 public:
  /// Serve `site` under `base` (e.g. "http://museum.example/site/").
  HypermediaServer(const VirtualSite& site, std::string base);

  /// GET by absolute URI (fragment ignored) or site-relative path.
  [[nodiscard]] Response get(std::string_view uri_or_path) const override;

  [[nodiscard]] const std::string& base() const noexcept override {
    return base_;
  }
  [[nodiscard]] std::size_t requests() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  /// GETs that answered 404.
  [[nodiscard]] std::size_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  const VirtualSite* site_;
  std::string base_;
  std::string normalized_base_;  // uri::normalize(base_), computed once
  mutable std::atomic<std::size_t> requests_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

/// "text/html", "text/xml", "text/css" or "application/octet-stream".
[[nodiscard]] std::string_view content_type_for(std::string_view path) noexcept;

}  // namespace navsep::site
