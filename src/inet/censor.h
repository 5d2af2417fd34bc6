// Country-level censorship middleboxes. Each instance sits on the routers
// of one access/egress network and rewrites HTTP requests for blocked
// categories or hostnames into a 302 redirect to the operator's block page —
// the upstream behaviour behind every redirect the paper's Table 4 reports
// (Turkey, South Korea, Russia, Netherlands, Thailand). Russian deployments
// are per-ISP: each hosting network redirects to its own ISP's block page.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "netsim/network.h"

namespace vpna::inet {

// Site categories used by both the site table and the censor policies.
enum class SiteCategory : std::uint8_t {
  kNews,
  kPolitics,
  kPornography,
  kFileSharing,
  kGovernment,
  kDefense,
  kStreaming,
  kShopping,
  kSocial,
  kTech,
  kEncyclopedia,
  kReligion,
  kProfessional,
  kInfrastructure,  // measurement endpoints; never censored
};

[[nodiscard]] std::string_view category_name(SiteCategory c) noexcept;

// Resolves a hostname to its category. Installed globally by the site
// table builder so censors can classify transit traffic.
class SiteDirectory {
 public:
  void set_category(std::string hostname, SiteCategory category);
  [[nodiscard]] std::optional<SiteCategory> category_of(
      std::string_view hostname) const;
  [[nodiscard]] const std::map<std::string, SiteCategory, std::less<>>&
  categories() const noexcept {
    return categories_;
  }

 private:
  std::map<std::string, SiteCategory, std::less<>> categories_;
};

struct CensorPolicy {
  std::string operator_name;           // "TTK", "Korea KCSC", ...
  std::string country_code;
  std::string redirect_url;            // destination block page
  std::set<SiteCategory> blocked_categories;
  std::set<std::string, std::less<>> blocked_hosts;  // exact hostnames blocked outright
};

// The middlebox: inspects transiting HTTP requests (TCP/80) and answers
// blocked ones with an HTTP 302 to the policy's block page. HTTPS traffic
// passes (the paper's censors act on cleartext HTTP).
class CensorMiddlebox final : public netsim::Middlebox {
 public:
  CensorMiddlebox(CensorPolicy policy,
                  std::shared_ptr<const SiteDirectory> directory);

  Verdict on_transit(netsim::Packet& packet) override;

  [[nodiscard]] const CensorPolicy& policy() const noexcept { return policy_; }

 private:
  CensorPolicy policy_;
  std::shared_ptr<const SiteDirectory> directory_;
};

}  // namespace vpna::inet
