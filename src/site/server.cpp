#include "site/server.hpp"

#include "uri/uri.hpp"

namespace navsep::site {

std::string_view content_type_for(std::string_view path) noexcept {
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.substr(path.size() - suffix.size()) == suffix;
  };
  if (ends_with(".html") || ends_with(".htm")) return "text/html";
  if (ends_with(".xml") || ends_with(".xsl")) return "text/xml";
  if (ends_with(".css")) return "text/css";
  return "application/octet-stream";
}

std::optional<std::string> site_path_under(std::string_view uri_or_path,
                                           std::string_view normalized_base) {
  if (uri_or_path.find("://") != std::string_view::npos) {
    // Absolute: must live under the base.
    std::string normalized =
        uri::normalize(uri::parse(uri_or_path)).to_string();
    if (std::size_t hash = normalized.find('#'); hash != std::string::npos) {
      normalized.resize(hash);
    }
    if (normalized.rfind(normalized_base, 0) != 0) return std::nullopt;
    return normalized.substr(normalized_base.size());
  }
  std::string path(uri_or_path);
  if (std::size_t hash = path.find('#'); hash != std::string::npos) {
    path.resize(hash);
  }
  return path;
}

HypermediaServer::HypermediaServer(const VirtualSite& site, std::string base)
    : site_(&site), base_(std::move(base)) {
  if (!base_.empty() && base_.back() != '/') base_ += '/';
  normalized_base_ = uri::normalize(uri::parse(base_)).to_string();
}

Response HypermediaServer::get(std::string_view uri_or_path) const {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::optional<std::string> path =
      site_path_under(uri_or_path, normalized_base_);
  std::shared_ptr<const std::string> body =
      path ? site_->get_shared(*path) : nullptr;
  if (body == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Response{404, "", nullptr};
  }
  return Response{200, std::string(content_type_for(*path)), std::move(body)};
}

}  // namespace navsep::site
