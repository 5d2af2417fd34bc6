#include "inet/censor.h"

#include "http/message.h"

namespace vpna::inet {

std::string_view category_name(SiteCategory c) noexcept {
  switch (c) {
    case SiteCategory::kNews: return "news";
    case SiteCategory::kPolitics: return "politics";
    case SiteCategory::kPornography: return "pornography";
    case SiteCategory::kFileSharing: return "file-sharing";
    case SiteCategory::kGovernment: return "government";
    case SiteCategory::kDefense: return "defense";
    case SiteCategory::kStreaming: return "streaming";
    case SiteCategory::kShopping: return "shopping";
    case SiteCategory::kSocial: return "social";
    case SiteCategory::kTech: return "tech";
    case SiteCategory::kEncyclopedia: return "encyclopedia";
    case SiteCategory::kReligion: return "religion";
    case SiteCategory::kProfessional: return "professional";
    case SiteCategory::kInfrastructure: return "infrastructure";
  }
  return "unknown";
}

void SiteDirectory::set_category(std::string hostname, SiteCategory category) {
  categories_[std::move(hostname)] = category;
}

std::optional<SiteCategory> SiteDirectory::category_of(
    std::string_view hostname) const {
  const auto it = categories_.find(hostname);
  if (it == categories_.end()) return std::nullopt;
  return it->second;
}

CensorMiddlebox::CensorMiddlebox(CensorPolicy policy,
                                 std::shared_ptr<const SiteDirectory> directory)
    : policy_(std::move(policy)), directory_(std::move(directory)) {}

netsim::Middlebox::Verdict CensorMiddlebox::on_transit(
    netsim::Packet& packet) {
  // Only cleartext HTTP is inspectable.
  if (packet.proto != netsim::Proto::kTcp ||
      packet.dst_port != netsim::kPortHttp)
    return {};

  const auto req = http::HttpRequestView::parse(packet.payload);
  if (!req) return {};

  bool blocked = policy_.blocked_hosts.contains(req->host);
  if (!blocked) {
    if (const auto category = directory_->category_of(req->host))
      blocked = policy_.blocked_categories.contains(*category);
  }
  if (!blocked) return {};

  const http::Header headers[] = {{"Location", policy_.redirect_url},
                                  {"X-Blocked-By", policy_.operator_name}};
  Verdict v;
  v.action = Action::kRespond;
  v.response_payload = http::encode_response(302, "Found", headers, {});
  return v;
}

}  // namespace vpna::inet
