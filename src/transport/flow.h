// The session layer between protocol clients and the packet plane.
//
// Every protocol in the measurement suite used to hand-roll the same
// pipeline — allocate an ephemeral port, build a packet, call
// `Network::transact`, map the status, accumulate RTT — with its own error
// enum and no shared seam for retries, fault injection or per-flow
// accounting. A `Flow` owns that pipeline for one (proto, remote, port)
// conversation: it allocates source ports, charges retry backoff in
// virtual time, walks multi-address candidate lists (happy-eyeballs-lite),
// accumulates per-flow RTT/attempt counters, and reports failures in the
// unified `transport::Error` taxonomy. Retry and fallback come only from
// the thread-bound `SessionPolicy` (transport/policy.h), read once when the
// flow is constructed. With none bound (one attempt, no fallback) a Flow
// exchange is byte-identical to the raw transact it replaced: same port
// draws, same packets, same virtual time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/trace.h"
#include "transport/error.h"
#include "transport/policy.h"

namespace vpna::transport {

// Outcome of one `Flow::exchange`.
struct FlowResult {
  Error error;  // not_attempted() until something was sent
  // Raw transport status of the last attempt (kOk even when the reply later
  // fails protocol parsing; servers switch on this for TTL handling).
  // Meaningful only when error.attempted() — `error.kind` is authoritative.
  netsim::TransactStatus status = netsim::TransactStatus::kOk;
  std::string reply;          // reply payload when delivered
  netsim::IpAddr responder;   // who answered (router for kTtlExpired)
  netsim::IpAddr remote;      // candidate address actually contacted
  double rtt_ms = 0.0;        // virtual time consumed, backoff included
  int attempts = 0;           // transactions performed
  bool via_tunnel = false;    // left the sender through a tun interface

  [[nodiscard]] bool ok() const noexcept { return error.ok(); }
};

class Flow {
 public:
  // Single-destination flow. `opts` (timeout, extra round trips) is
  // passed to every transact as is.
  Flow(netsim::Network& net, netsim::Host& host, netsim::Proto proto,
       const netsim::IpAddr& remote, std::uint16_t remote_port,
       netsim::TransactOptions opts = {});
  // Multi-address flow: `candidates` in resolver order. Under a session
  // policy with `address_fallback` each attempt walks the list until one
  // address answers at the transport level; otherwise only the front is
  // used.
  Flow(netsim::Network& net, netsim::Host& host, netsim::Proto proto,
       std::span<const netsim::IpAddr> candidates,
       std::uint16_t remote_port, netsim::TransactOptions opts = {});

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;
  ~Flow();

  // NAT/egress override: stamp this source address on every packet.
  void set_src(const netsim::IpAddr& src) noexcept { src_ = src; }
  // Pin the source port (a NAT slot allocated up front). Unpinned flows
  // draw a fresh ephemeral port per attempt for UDP/TCP and send ICMP
  // unported, exactly like the clients they replaced.
  void pin_src_port(std::uint16_t port) noexcept { pinned_src_port_ = port; }
  void set_ttl(int ttl) noexcept { ttl_ = ttl; }

  // One request/reply exchange under the flow's session policy.
  FlowResult exchange(std::string payload);

  // --- per-flow accounting ---------------------------------------------------
  // Candidate addresses in resolver order (0 = primary).
  [[nodiscard]] std::size_t candidate_count() const noexcept {
    return empty_ ? 0 : 1 + fallbacks_.size();
  }
  [[nodiscard]] const netsim::IpAddr& candidate(std::size_t i) const noexcept {
    return i == 0 ? primary_ : fallbacks_[i - 1];
  }
  [[nodiscard]] double total_rtt_ms() const noexcept { return total_rtt_ms_; }
  [[nodiscard]] int attempts() const noexcept { return attempts_; }
  [[nodiscard]] int exchanges() const noexcept { return exchanges_; }
  [[nodiscard]] const Error& last_error() const noexcept { return last_error_; }

 private:
  netsim::Network& net_;
  netsim::Host& host_;
  netsim::Proto proto_;
  // Split so the common single-address flow never touches the heap: the
  // first candidate lives inline, only extras (rare) go in the vector.
  netsim::IpAddr primary_;
  std::vector<netsim::IpAddr> fallbacks_;
  bool empty_ = false;  // constructed with an empty candidate list
  std::uint16_t remote_port_;
  netsim::TransactOptions opts_;
  SessionPolicy policy_;  // the bound policy at construction, or the default
  netsim::IpAddr src_;  // unspecified = let the stack choose
  std::optional<std::uint16_t> pinned_src_port_;
  int ttl_ = -1;  // -1 = packet default

  double total_rtt_ms_ = 0.0;
  int attempts_ = 0;
  int exchanges_ = 0;
  Error last_error_ = Error::not_attempted();

  obs::Span span_;  // per-flow span; finalized with accounting args in dtor
};

}  // namespace vpna::transport
