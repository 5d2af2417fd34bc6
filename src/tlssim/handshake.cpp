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

std::shared_ptr<const CertChain> ChainMemo::decode_server_hello(
    std::string payload) {
  constexpr std::size_t kChainAt = 5;  // after "TLSS|"
  if (!util::starts_with(payload, "TLSS|")) return nullptr;
  const auto bytes = std::string_view(payload).substr(kChainAt);
  if (const auto it = chains_.find(bytes); it != chains_.end())
    return {it->second, &it->second->chain};
  auto chain = CertChain::decode(bytes);
  if (!chain) return nullptr;
  auto entry = std::make_shared<const Entry>(
      Entry{std::move(payload), std::move(*chain)});
  const auto key = std::string_view(entry->payload).substr(kChainAt);
  const auto& stored = chains_.emplace(key, std::move(entry)).first->second;
  return {stored, &stored->chain};
}

HandshakeResult tls_handshake(netsim::Network& net, netsim::Host& client,
                              const netsim::IpAddr& server,
                              std::string_view hostname,
                              const CaStore& store, ChainMemo& memo) {
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
  auto result = flow.exchange(encode_client_hello(hostname));
  out.error = result.error;
  out.rtt_ms = result.rtt_ms;
  if (!result.ok()) {
    obs::count("tls.handshake_failures");
    if (span) span.arg("error", transport::error_name(out.error));
    return out;
  }

  out.chain = memo.decode_server_hello(std::move(result.reply));
  if (!out.chain) out.error = transport::Error::parse();
  if (out.chain) out.validation = store.validate(*out.chain, hostname);
  if (span) span.arg("validation", validation_name(out.validation));
  if (out.validation != ValidationStatus::kValid)
    obs::count("tls.validation_failures");
  return out;
}

std::optional<std::string> TlsTerminator::handle(netsim::ServiceContext& ctx) {
  if (const auto sni = decode_client_hello(ctx.request.payload)) {
    const auto* leaf = chain_->leaf();
    if (leaf == nullptr || !leaf->matches_host(*sni))
      return std::nullopt;  // handshake alert: no cert for this name
    return encode_server_hello(*chain_);
  }
  if (app_ == nullptr) return std::nullopt;
  return app_->handle(ctx);
}

}  // namespace vpna::tlssim
