#include "transport/flow.h"

#include <utility>

#include "obs/metrics.h"

namespace vpna::transport {

namespace {
// The thread-bound policy (installed per shard under fault profiles), or
// the single-attempt, first-address default.
SessionPolicy bound_policy() noexcept {
  const SessionPolicy* policy = session_policy();
  return policy != nullptr ? *policy : SessionPolicy{};
}
}  // namespace

Flow::Flow(netsim::Network& net, netsim::Host& host, netsim::Proto proto,
           const netsim::IpAddr& remote, std::uint16_t remote_port,
           netsim::TransactOptions opts)
    : net_(net),
      host_(host),
      proto_(proto),
      primary_(remote),
      remote_port_(remote_port),
      opts_(opts),
      policy_(bound_policy()),
      span_("transport.flow", "transport") {
  obs::count("transport.flows");
  if (span_) {
    span_.arg("proto", netsim::proto_name(proto_));
    span_.arg("remote", primary_.str());
    span_.arg("port", static_cast<std::int64_t>(remote_port_));
  }
}

Flow::Flow(netsim::Network& net, netsim::Host& host, netsim::Proto proto,
           std::span<const netsim::IpAddr> candidates,
           std::uint16_t remote_port, netsim::TransactOptions opts)
    : Flow(net, host, proto,
           candidates.empty() ? netsim::IpAddr{} : candidates.front(),
           remote_port, opts) {
  empty_ = candidates.empty();
  // The primary lives inline; only extra candidates are copied.
  if (candidates.size() > 1)
    fallbacks_.assign(candidates.begin() + 1, candidates.end());
}

Flow::~Flow() {
  if (span_) {
    span_.arg("exchanges", static_cast<std::int64_t>(exchanges_));
    span_.arg("attempts", static_cast<std::int64_t>(attempts_));
    span_.arg("rtt_ms", total_rtt_ms_);
    span_.arg("error", error_name(last_error_));
  }
}

FlowResult Flow::exchange(std::string payload) {
  FlowResult out;
  ++exchanges_;
  obs::count("transport.exchanges");
  if (empty_) {
    // Nothing to contact: an explicit not-attempted outcome, deliberately
    // distinct from kNoRoute (the plane was never asked).
    last_error_ = out.error = Error::not_attempted();
    return out;
  }

  const std::size_t n_candidates =
      policy_.address_fallback ? candidate_count() : 1;
  // Single-shot flows (no policy bound) move the payload straight into the
  // packet; only retry/fallback policies need to keep a reusable copy.
  const bool single_shot =
      policy_.retry.max_attempts <= 1 && n_candidates == 1;

  for (int attempt = 1; attempt <= policy_.retry.max_attempts; ++attempt) {
    // Backoff between attempts is simulation time, not wall time: charge
    // the wait to the clock (and this flow's RTT budget) deterministically.
    const double backoff_ms = policy_.retry.backoff_before_attempt(attempt);
    if (backoff_ms > 0) {
      net_.clock().advance_millis(backoff_ms);
      out.rtt_ms += backoff_ms;
    }
    if (attempt > 1) obs::count("transport.retries");

    for (std::size_t ci = 0; ci < n_candidates; ++ci) {
      if (ci > 0) obs::count("transport.fallback_switches");
      const netsim::IpAddr& remote = candidate(ci);

      netsim::Packet p;
      p.src = src_;
      p.dst = remote;
      p.proto = proto_;
      p.dst_port = remote_port_;
      if (pinned_src_port_) {
        p.src_port = *pinned_src_port_;
      } else if (proto_ == netsim::Proto::kUdp ||
                 proto_ == netsim::Proto::kTcp) {
        p.src_port = host_.next_ephemeral_port();
      }
      if (ttl_ >= 0) p.ttl = ttl_;
      p.payload = single_shot ? std::move(payload) : payload;

      auto result = net_.transact(host_, std::move(p), opts_);
      ++attempts_;
      ++out.attempts;
      out.rtt_ms += result.rtt_ms;
      out.status = result.status;
      out.responder = result.responder;
      out.remote = remote;
      out.via_tunnel = result.via_tunnel;
      if (result.ok()) {
        out.reply = std::move(result.reply);
        last_error_ = out.error = Error::none();
        total_rtt_ms_ += out.rtt_ms;
        obs::observe("transport.rtt_ms", out.rtt_ms, obs::kRttBucketsMs);
        return out;
      }
    }
  }

  last_error_ = out.error = Error::from_status(out.status);
  total_rtt_ms_ += out.rtt_ms;
  obs::count("transport.failures");
  obs::observe("transport.rtt_ms", out.rtt_ms, obs::kRttBucketsMs);
  return out;
}

}  // namespace vpna::transport
