// TLS handshake over the packet simulator. A client sends a ClientHello
// carrying the SNI name; the server (or an in-path interceptor) answers
// with a certificate chain. No key exchange is simulated — the artefacts
// the measurement suite inspects are the chain and who presented it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

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

// Decoded certificate chains shared per exact chain bytes. Every server
// presents one fixed chain per name, so a world's handshakes see far fewer
// distinct chains than handshakes; each distinct chain is decoded once and
// later handshakes share it. A hit allocates nothing. Owned by one world
// (see inet::World::chain_memo) and dropped with it; not thread-safe.
class ChainMemo {
 public:
  // decode_server_hello(payload), shared; nullptr exactly when that decode
  // fails (failures are not kept). The payload is taken whole, so a new
  // chain keeps its bytes without a copy.
  [[nodiscard]] std::shared_ptr<const CertChain> decode_server_hello(
      std::string payload);
  // Distinct chains held.
  [[nodiscard]] std::size_t size() const noexcept { return chains_.size(); }

 private:
  struct Entry {
    std::string payload;  // the ServerHello; the map key views its chain
    CertChain chain;
  };
  std::unordered_map<std::string_view, std::shared_ptr<const Entry>>
      chains_;
};

struct HandshakeResult {
  // not-attempted until the ClientHello is sent; a handshake that was
  // never tried no longer masquerades as a routing failure.
  transport::Error error;
  // Shared with every other handshake through the same ChainMemo that was
  // presented the same chain bytes.
  std::shared_ptr<const CertChain> chain;
  ValidationStatus validation = ValidationStatus::kEmptyChain;
  double rtt_ms = 0.0;

  [[nodiscard]] bool completed() const noexcept {
    return error.ok() && chain != nullptr;
  }
};

// Performs a handshake with `server` for SNI `hostname` and validates the
// presented chain against `store`, retrying under the thread's session
// policy. The presented chain is decoded through `memo` (a world's is
// inet::World::chain_memo).
[[nodiscard]] HandshakeResult tls_handshake(netsim::Network& net,
                                            netsim::Host& client,
                                            const netsim::IpAddr& server,
                                            std::string_view hostname,
                                            const CaStore& store,
                                            ChainMemo& memo);

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
