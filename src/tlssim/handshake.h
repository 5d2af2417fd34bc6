// TLS handshake over the packet simulator. A client sends a ClientHello
// carrying the SNI name; the server (or an in-path interceptor) answers
// with a certificate chain. No key exchange is simulated — the artefacts
// the measurement suite inspects are the chain and who presented it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "netsim/host.h"
#include "netsim/network.h"
#include "tlssim/cert.h"
#include "transport/error.h"

namespace vpna::tlssim {

// Wire forms. ClientHello: "TLSH|<sni>". ServerHello: "TLSS|<chain>".
// The decoded SNI views the payload.
[[nodiscard]] std::string encode_client_hello(std::string_view sni);
[[nodiscard]] std::optional<std::string_view> decode_client_hello(
    std::string_view payload);
[[nodiscard]] std::string encode_server_hello(const CertChain& chain);
[[nodiscard]] std::optional<CertChain> decode_server_hello(
    std::string_view payload);

struct HandshakeResult {
  // not-attempted until the ClientHello is sent; a handshake that was
  // never tried no longer masquerades as a routing failure.
  transport::Error error;
  std::optional<CertChain> chain;
  ValidationStatus validation = ValidationStatus::kEmptyChain;
  double rtt_ms = 0.0;

  [[nodiscard]] bool completed() const noexcept {
    return error.ok() && chain.has_value();
  }
};

// Performs a handshake with `server` for SNI `hostname` and validates the
// presented chain against `store`, retrying under the thread's session
// policy.
[[nodiscard]] HandshakeResult tls_handshake(netsim::Network& net,
                                            netsim::Host& client,
                                            const netsim::IpAddr& server,
                                            std::string_view hostname,
                                            const CaStore& store);

// Server-side port-443 service: answers ClientHello with the chain for the
// requested SNI and delegates anything else (application data) to `app`.
class TlsTerminator final : public netsim::Service {
 public:
  explicit TlsTerminator(std::shared_ptr<netsim::Service> app)
      : app_(std::move(app)) {}

  // Installs the chain presented for an SNI name. The shared form lets
  // terminators that present the same chain hold one read-only copy.
  void set_chain(std::string hostname, CertChain chain);
  void set_chain(std::string hostname, std::shared_ptr<const CertChain> chain);
  [[nodiscard]] const CertChain* chain_for(std::string_view hostname) const;

  std::optional<std::string> handle(netsim::ServiceContext& ctx) override;

 private:
  std::shared_ptr<netsim::Service> app_;
  std::map<std::string, std::shared_ptr<const CertChain>, std::less<>> chains_;
};

}  // namespace vpna::tlssim
