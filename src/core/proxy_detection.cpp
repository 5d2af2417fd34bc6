#include "core/proxy_detection.h"

#include "http/client.h"
#include "http/message.h"

namespace vpna::core {

ProxyDetectionResult run_proxy_detection_test(inet::World& world,
                                              netsim::Host& client) {
  ProxyDetectionResult out;
  http::HttpClient c(world.network(), client);

  // Distinctive header set: unusual casing and spacing that a
  // parse-and-regenerate proxy cannot help but normalize.
  http::FetchOptions opts;
  opts.headers = {
      {"user-AGENT", "vpna-probe/1.0  (double  spaced)"},
      {"x-ODD-Casing-hEADER", "keep-Me-Exactly"},
      {"Accept", "text/html"},
  };
  auto res =
      c.fetch("http://" + std::string(inet::header_echo_host()) + "/", opts);
  out.request_succeeded = res.ok();
  if (!res.ok() || res.exchanges.empty()) return out;

  // The request is re-encoded, not kept by the client: encoding is
  // deterministic, so these are the bytes the first exchange sent.
  out.sent = http::encode_fetch_request(res.exchanges.front().url, opts);
  out.received = std::move(res.body);
  out.proxy_detected = out.sent != out.received;
  if (out.proxy_detected) {
    const auto sent_req = http::HttpRequest::decode(out.sent);
    const auto seen_req = http::HttpRequest::decode(out.received);
    if (sent_req && seen_req) {
      out.headers_added = seen_req->headers.size() > sent_req->headers.size();
      out.headers_rewritten =
          seen_req->headers.size() == sent_req->headers.size();
    }
  }
  return out;
}

PcapScanResult run_pcap_scan(const netsim::Host& client) {
  PcapScanResult out;
  const auto eth0 = client.capture().find_interface("eth0");
  for (const auto& rec : client.capture().records()) {
    ++out.packets_scanned;
    if (rec.interface_id != eth0) continue;
    const bool is_dns_query = rec.packet.proto == netsim::Proto::kUdp &&
                              rec.packet.dst_port == netsim::kPortDns &&
                              !rec.encapsulated;
    if (!is_dns_query) continue;
    if (rec.direction == netsim::Direction::kIn) {
      // A DNS *query* arriving at us (destination port 53 inbound): someone
      // is resolving through our address.
      ++out.unexpected_inbound_dns;
    } else {
      ++out.unattributed_outbound_dns;
    }
  }
  return out;
}

}  // namespace vpna::core
