#include "tlssim/handshake.h"

#include "obs/trace.h"
#include "transport/flow.h"
#include "util/strings.h"

namespace vpna::tlssim {

std::string encode_client_hello(std::string_view sni) {
  std::string out;
  out.reserve(5 + sni.size() + netsim::kPayloadHeadroom);
  out += "TLSH|";
  out += sni;
  return out;
}

std::optional<std::string_view> decode_client_hello(std::string_view payload) {
  if (!util::starts_with(payload, "TLSH|")) return std::nullopt;
  return payload.substr(5);
}

std::string encode_server_hello(const CertChain& chain) {
  std::string out = "TLSS|";
  chain.encode_into(out);
  return out;
}

std::optional<CertChain> decode_server_hello(std::string_view payload) {
  if (!util::starts_with(payload, "TLSS|")) return std::nullopt;
  return CertChain::decode(payload.substr(5));
}

HandshakeResult tls_handshake(netsim::Network& net, netsim::Host& client,
                              const netsim::IpAddr& server,
                              std::string_view hostname,
                              const CaStore& store) {
  obs::Span span("tls.handshake", "tls");
  if (span) {
    span.arg("sni", hostname);
    span.arg("server", server.str());
  }
  obs::count("tls.handshakes");

  HandshakeResult out;

  netsim::TransactOptions topts;
  topts.extra_round_trips = 2;  // TCP SYN + TLS flights
  transport::Flow flow(net, client, netsim::Proto::kTcp, server,
                       netsim::kPortHttps, topts);
  const auto result = flow.exchange(encode_client_hello(hostname));
  out.error = result.error;
  out.rtt_ms = result.rtt_ms;
  if (!result.ok()) {
    obs::count("tls.handshake_failures");
    if (span) span.arg("error", transport::error_name(out.error));
    return out;
  }

  out.chain = decode_server_hello(result.reply);
  if (!out.chain) out.error = transport::Error::parse();
  if (out.chain) out.validation = store.validate(*out.chain, hostname);
  if (span) span.arg("validation", validation_name(out.validation));
  if (out.validation != ValidationStatus::kValid)
    obs::count("tls.validation_failures");
  return out;
}

void TlsTerminator::set_chain(std::string hostname, CertChain chain) {
  set_chain(std::move(hostname),
            std::make_shared<const CertChain>(std::move(chain)));
}

void TlsTerminator::set_chain(std::string hostname,
                              std::shared_ptr<const CertChain> chain) {
  chains_[std::move(hostname)] = std::move(chain);
}

const CertChain* TlsTerminator::chain_for(std::string_view hostname) const {
  if (const auto it = chains_.find(hostname); it != chains_.end())
    return it->second.get();
  // Fall back to a wildcard entry covering the host, if installed.
  for (const auto& [name, chain] : chains_) {
    if (!chain->certs.empty() && chain->certs.front().matches_host(hostname))
      return chain.get();
  }
  return nullptr;
}

std::optional<std::string> TlsTerminator::handle(netsim::ServiceContext& ctx) {
  if (const auto sni = decode_client_hello(ctx.request.payload)) {
    const auto* chain = chain_for(*sni);
    if (chain == nullptr) return std::nullopt;  // handshake alert: no cert
    return encode_server_hello(*chain);
  }
  if (app_ == nullptr) return std::nullopt;
  return app_->handle(ctx);
}

}  // namespace vpna::tlssim
