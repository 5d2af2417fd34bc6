// Simplified X.509 model: named subjects, issuer chains, key fingerprints
// and a trust store. Rich enough for everything the paper's TLS tests
// observe — issuer substitution under interception, fingerprint drift,
// validation failures — without any actual cryptography.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace vpna::tlssim {

struct Certificate {
  std::string subject;           // DNS name the cert is issued for
  std::string issuer;            // issuing CA's name
  std::string key_fingerprint;   // stable per issuance ("SPKI hash")
  bool expired = false;

  // Wildcard-aware hostname match ("*.example.com" covers one extra label).
  [[nodiscard]] bool matches_host(std::string_view hostname) const;

  // "CERT{subject;issuer;fingerprint;0|1}". decode() rejects any other
  // field count and an expired field other than "0" or "1".
  [[nodiscard]] std::string encode() const;
  void encode_into(std::string& out) const;  // appends encode()
  static std::optional<Certificate> decode(std::string_view text);
};

// Leaf-first chain.
struct CertChain {
  std::vector<Certificate> certs;

  [[nodiscard]] const Certificate* leaf() const {
    return certs.empty() ? nullptr : &certs.front();
  }
  [[nodiscard]] const Certificate* root() const {
    return certs.empty() ? nullptr : &certs.back();
  }

  // The certificates' encodings joined by '|'.
  [[nodiscard]] std::string encode() const;
  void encode_into(std::string& out) const;  // appends encode()
  static std::optional<CertChain> decode(std::string_view text);
};

enum class ValidationStatus : std::uint8_t {
  kValid,
  kEmptyChain,
  kHostnameMismatch,
  kUntrustedRoot,
  kBrokenChain,   // issuer/subject links don't connect
  kExpired,
};

[[nodiscard]] std::string_view validation_name(ValidationStatus s) noexcept;

// A set of trusted root CA names (the simulator's "system trust store").
class CaStore {
 public:
  void trust(std::string ca_name);
  [[nodiscard]] bool is_trusted(std::string_view ca_name) const;

  // Full chain validation: hostname match on the leaf, connected
  // issuer links, trusted root, nothing expired.
  [[nodiscard]] ValidationStatus validate(const CertChain& chain,
                                          std::string_view hostname) const;

 private:
  std::vector<std::string> trusted_;
};

// Issues a leaf + root chain for `hostname` signed by `ca_name`. The key
// fingerprint is derived deterministically from (hostname, ca, serial) so
// re-issuing with a different serial changes the fingerprint — which is how
// the baseline-comparison test notices substitution.
[[nodiscard]] CertChain issue_chain(std::string_view hostname,
                                    std::string_view ca_name,
                                    std::uint64_t serial);

}  // namespace vpna::tlssim
