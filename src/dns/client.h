// Client-side DNS helpers: issue a query to a specific server, or resolve
// through the host's configured system resolvers (the path a leaking VPN
// client fails to redirect). Queries ride the transport layer: one
// `transport::Flow` per query, retried under the thread's session policy,
// failures reported in the unified `transport::Error` taxonomy.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dns/message.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "transport/error.h"
#include "util/clock.h"

namespace vpna::dns {

struct LookupResult {
  // Starts as not-attempted: a lookup that was never issued is now
  // distinguishable from one the packet plane failed to route.
  transport::Error error;
  Rcode rcode = Rcode::kServFail;
  std::vector<netsim::IpAddr> addresses;
  std::vector<std::string> texts;
  netsim::IpAddr server;  // the resolver that answered
  double rtt_ms = 0.0;

  [[nodiscard]] bool ok() const noexcept { return error.ok(); }
};

// Queries one resolver directly.
[[nodiscard]] LookupResult query(netsim::Network& net, netsim::Host& host,
                                 const netsim::IpAddr& server,
                                 std::string_view name, RrType type);

// Resolves through the host's configured DNS servers, in order, returning
// the first answer that came back intact (mirrors the OS stub resolver).
// Uncached: every call puts queries on the wire, which is what the leak,
// DNS-manipulation, recursive-origin and WebRTC probes need.
[[nodiscard]] LookupResult resolve_system(netsim::Network& net,
                                          netsim::Host& host,
                                          std::string_view name, RrType type);

// How long the browser keeps a system-resolver answer: Chrome's host-cache
// lifetime for results that carry no TTL of their own.
inline constexpr util::SimTime kHostCacheLifetime =
    util::SimTime::from_seconds(60);

// The browser's lookup: an unexpired answer in the host's HostCache is
// returned without a packet; otherwise resolve_system, and an answer with
// addresses is kept kHostCacheLifetime. Failures are never cached, so a
// faulted lookup is retried on the wire next time. Page loads
// (http::HttpClient), the TLS probe and ground-truth collection resolve
// here.
[[nodiscard]] LookupResult resolve_browser(netsim::Network& net,
                                           netsim::Host& host,
                                           std::string_view name,
                                           RrType type);

}  // namespace vpna::dns
