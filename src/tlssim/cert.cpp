#include "tlssim/cert.h"

#include <algorithm>

#include "netsim/packet.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::tlssim {

bool Certificate::matches_host(std::string_view hostname) const {
  if (subject == hostname) return true;
  if (util::starts_with(subject, "*.")) {
    const std::string_view base = std::string_view(subject).substr(2);
    // One extra label exactly.
    const std::size_t dot = hostname.find('.');
    if (dot == std::string_view::npos) return false;
    return hostname.substr(dot + 1) == base;
  }
  return false;
}

std::string Certificate::encode() const {
  std::string out;
  encode_into(out);
  return out;
}

void Certificate::encode_into(std::string& out) const {
  // Fields end at their first NUL, as the printf-based encoder wrote them.
  out += "CERT{";
  out += util::c_str_view(subject);
  out += ';';
  out += util::c_str_view(issuer);
  out += ';';
  out += util::c_str_view(key_fingerprint);
  out += expired ? ";1}" : ";0}";
}

std::optional<Certificate> Certificate::decode(std::string_view text) {
  if (!util::starts_with(text, "CERT{") || !util::ends_with(text, "}"))
    return std::nullopt;
  const auto parts = util::split_exact<4>(text.substr(5, text.size() - 6), ';');
  if (!parts) return std::nullopt;
  const auto& [subject, issuer, fingerprint, expired] = *parts;
  if (expired != "0" && expired != "1") return std::nullopt;
  Certificate c;
  c.subject = std::string(subject);
  c.issuer = std::string(issuer);
  c.key_fingerprint = std::string(fingerprint);
  c.expired = expired == "1";
  return c;
}

std::string CertChain::encode() const {
  std::string out;
  encode_into(out);
  return out;
}

void CertChain::encode_into(std::string& out) const {
  std::size_t size = out.size() + netsim::kPayloadHeadroom;
  for (const auto& c : certs)
    size += 12 + c.subject.size() + c.issuer.size() + c.key_fingerprint.size();
  out.reserve(size);
  for (std::size_t i = 0; i < certs.size(); ++i) {
    if (i != 0) out += '|';
    certs[i].encode_into(out);
  }
}

std::optional<CertChain> CertChain::decode(std::string_view text) {
  CertChain chain;
  if (text.empty()) return chain;
  chain.certs.reserve(
      1 + static_cast<std::size_t>(std::count(text.begin(), text.end(), '|')));
  const bool parsed = util::for_each_field(text, '|', [&](std::string_view part) {
    auto c = Certificate::decode(part);
    if (c) chain.certs.push_back(std::move(*c));
    return c.has_value();
  });
  if (!parsed) return std::nullopt;
  return chain;
}

std::string_view validation_name(ValidationStatus s) noexcept {
  switch (s) {
    case ValidationStatus::kValid: return "valid";
    case ValidationStatus::kEmptyChain: return "empty-chain";
    case ValidationStatus::kHostnameMismatch: return "hostname-mismatch";
    case ValidationStatus::kUntrustedRoot: return "untrusted-root";
    case ValidationStatus::kBrokenChain: return "broken-chain";
    case ValidationStatus::kExpired: return "expired";
  }
  return "unknown";
}

void CaStore::trust(std::string ca_name) {
  if (!is_trusted(ca_name)) trusted_.push_back(std::move(ca_name));
}

bool CaStore::is_trusted(std::string_view ca_name) const {
  return std::any_of(trusted_.begin(), trusted_.end(),
                     [&](const std::string& t) { return t == ca_name; });
}

ValidationStatus CaStore::validate(const CertChain& chain,
                                   std::string_view hostname) const {
  if (chain.certs.empty()) return ValidationStatus::kEmptyChain;
  if (!chain.leaf()->matches_host(hostname))
    return ValidationStatus::kHostnameMismatch;
  for (std::size_t i = 0; i + 1 < chain.certs.size(); ++i) {
    if (chain.certs[i].issuer != chain.certs[i + 1].subject)
      return ValidationStatus::kBrokenChain;
  }
  for (const auto& c : chain.certs)
    if (c.expired) return ValidationStatus::kExpired;
  if (!is_trusted(chain.root()->issuer)) return ValidationStatus::kUntrustedRoot;
  return ValidationStatus::kValid;
}

CertChain issue_chain(std::string_view hostname, std::string_view ca_name,
                      std::uint64_t serial) {
  Certificate leaf;
  leaf.subject = std::string(hostname);
  leaf.issuer = std::string(ca_name);
  leaf.key_fingerprint = util::format(
      "fp:%016llx",
      static_cast<unsigned long long>(
          util::fnv1a(std::string(hostname) + "|" + std::string(ca_name)) ^
          (serial * 0x9e3779b97f4a7c15ULL)));

  Certificate root;
  root.subject = std::string(ca_name);
  root.issuer = std::string(ca_name);  // self-signed root
  root.key_fingerprint = util::format(
      "fp:%016llx",
      static_cast<unsigned long long>(util::fnv1a(std::string(ca_name))));

  CertChain chain;
  chain.certs = {std::move(leaf), std::move(root)};
  return chain;
}

}  // namespace vpna::tlssim
