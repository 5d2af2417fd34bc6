#include "core/report_codec.h"

#include <cstring>

#include "core/parallel_campaign.h"
#include "faults/profile.h"
#include "util/le_bytes.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::core {

namespace {

// ---- writer -----------------------------------------------------------------

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { util::put_le(out_, v); }
  void u32(std::uint32_t v) { util::put_le(out_, v); }
  void u64(std::uint64_t v) { util::put_le(out_, v); }
  // Two's-complement via u32/u64 so negative values round-trip exactly.
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  // Bit-exact: the payload must reproduce NaNs and signed zeros as the
  // runner produced them, not as printf would render them.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  void addr(const netsim::IpAddr& a) {
    u8(static_cast<std::uint8_t>(a.family()));
    for (auto b : a.bytes()) u8(b);
  }

 private:
  std::string& out_;
};

// ---- reader -----------------------------------------------------------------

// Every accessor returns false on exhausted input and leaves the cursor
// unspecified; callers chain with && so the first failure aborts decode.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool done() const { return off_ == bytes_.size(); }

  bool u8(std::uint8_t* v) {
    if (bytes_.size() - off_ < 1) return false;
    *v = static_cast<std::uint8_t>(bytes_[off_++]);
    return true;
  }
  bool u16(std::uint16_t* v) { return fixed(v); }
  bool u32(std::uint32_t* v) { return fixed(v); }
  bool u64(std::uint64_t* v) { return fixed(v); }
  bool i32(std::int32_t* v) {
    std::uint32_t raw = 0;
    if (!u32(&raw)) return false;
    *v = static_cast<std::int32_t>(raw);
    return true;
  }
  // Strict: only 0/1 are valid — a flipped bit in a bool is corruption,
  // not a new truth value.
  bool boolean(bool* v) {
    std::uint8_t raw = 0;
    if (!u8(&raw) || raw > 1) return false;
    *v = raw == 1;
    return true;
  }
  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof *v);
    return true;
  }
  bool str(std::string* s) {
    std::uint32_t len = 0;
    if (!u32(&len)) return false;
    if (bytes_.size() - off_ < len) return false;
    s->assign(bytes_.data() + off_, len);
    off_ += len;
    return true;
  }
  // Range-validated enum byte: `max` is the last valid enumerator value.
  template <typename E>
  bool enum8(E* e, std::uint8_t max) {
    std::uint8_t raw = 0;
    if (!u8(&raw) || raw > max) return false;
    *e = static_cast<E>(raw);
    return true;
  }
  bool addr(netsim::IpAddr* a) {
    std::uint8_t family = 0;
    if (!u8(&family) || family > 1) return false;
    std::array<std::uint8_t, 16> raw{};
    for (auto& b : raw)
      if (!u8(&b)) return false;
    if (family == static_cast<std::uint8_t>(netsim::IpFamily::kV6)) {
      *a = netsim::IpAddr::v6(raw);
    } else {
      // v4 storage is the first 4 bytes; the rest must be zero in any
      // artifact we wrote ourselves.
      for (std::size_t i = 4; i < raw.size(); ++i)
        if (raw[i] != 0) return false;
      *a = netsim::IpAddr::v4(raw[0], raw[1], raw[2], raw[3]);
    }
    return true;
  }
  // Element-count guard for vectors: each element of any encoded type
  // costs at least one byte, so a count beyond the remaining bytes can
  // only be corruption — reject before reserving memory for it.
  bool count(std::uint32_t* n) {
    if (!u32(n)) return false;
    return *n <= bytes_.size() - off_;
  }

 private:
  template <typename T>
  bool fixed(T* v) {
    if (bytes_.size() - off_ < sizeof(T)) return false;
    *v = util::get_le<T>(bytes_.data() + off_);
    off_ += sizeof(T);
    return true;
  }

  std::string_view bytes_;
  std::size_t off_ = 0;
};

// ---- field-by-field encode/decode pairs -------------------------------------
// Kept adjacent per struct so a field added to one side without the other
// is visible in review; the round-trip fuzz suite catches the rest.

void encode_error(Writer& w, const transport::Error& e) {
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u8(static_cast<std::uint8_t>(e.status));
  w.u16(e.code);
}

bool decode_error(Reader& r, transport::Error* e) {
  return r.enum8(&e->kind,
                 static_cast<std::uint8_t>(transport::ErrorKind::kRedirectLimit)) &&
         r.enum8(&e->status,
                 static_cast<std::uint8_t>(netsim::TransactStatus::kTtlExpired)) &&
         r.u16(&e->code);
}

void encode_degradation(Writer& w, const Degradation& d) {
  w.boolean(d.degraded);
  w.str(d.stage);
  encode_error(w, d.error);
  w.i32(d.attempts);
  w.u64(d.faults_seen);
}

bool decode_degradation(Reader& r, Degradation* d) {
  return r.boolean(&d->degraded) && r.str(&d->stage) &&
         decode_error(r, &d->error) && r.i32(&d->attempts) &&
         r.u64(&d->faults_seen);
}

void encode_metadata(Writer& w, const MetadataSnapshot& m) {
  w.str(m.routing_table);
  w.u32(static_cast<std::uint32_t>(m.dns_resolvers.size()));
  for (const auto& s : m.dns_resolvers) w.str(s);
  w.u32(static_cast<std::uint32_t>(m.interfaces.size()));
  for (const auto& s : m.interfaces) w.str(s);
}

bool decode_metadata(Reader& r, MetadataSnapshot* m) {
  if (!r.str(&m->routing_table)) return false;
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  m->dns_resolvers.resize(n);
  for (auto& s : m->dns_resolvers)
    if (!r.str(&s)) return false;
  if (!r.count(&n)) return false;
  m->interfaces.resize(n);
  for (auto& s : m->interfaces)
    if (!r.str(&s)) return false;
  return true;
}

void encode_dns_manipulation(Writer& w, const DnsManipulationResult& v) {
  w.i32(v.names_tested);
  w.u32(static_cast<std::uint32_t>(v.mismatches.size()));
  for (const auto& m : v.mismatches) {
    w.str(m.hostname);
    w.str(m.via_default);
    w.str(m.via_google);
    w.str(m.default_owner);
    w.str(m.google_owner);
    w.boolean(m.suspicious);
  }
}

bool decode_dns_manipulation(Reader& r, DnsManipulationResult* v) {
  if (!r.i32(&v->names_tested)) return false;
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  v->mismatches.resize(n);
  for (auto& m : v->mismatches) {
    if (!(r.str(&m.hostname) && r.str(&m.via_default) && r.str(&m.via_google) &&
          r.str(&m.default_owner) && r.str(&m.google_owner) &&
          r.boolean(&m.suspicious)))
      return false;
  }
  return true;
}

void encode_dom_collection(Writer& w, const DomCollectionResult& v) {
  w.u32(static_cast<std::uint32_t>(v.pages.size()));
  for (const auto& p : v.pages) {
    w.str(p.hostname);
    w.boolean(p.load_ok);
    w.u8(static_cast<std::uint8_t>(p.redirect));
    w.str(p.final_host);
    w.boolean(p.dom_matches_groundtruth);
    w.u32(static_cast<std::uint32_t>(p.unexpected_request_urls.size()));
    for (const auto& u : p.unexpected_request_urls) w.str(u);
  }
}

bool decode_dom_collection(Reader& r, DomCollectionResult* v) {
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  v->pages.resize(n);
  for (auto& p : v->pages) {
    if (!(r.str(&p.hostname) && r.boolean(&p.load_ok) &&
          r.enum8(&p.redirect,
                  static_cast<std::uint8_t>(RedirectClass::kUnrelated)) &&
          r.str(&p.final_host) && r.boolean(&p.dom_matches_groundtruth)))
      return false;
    std::uint32_t urls = 0;
    if (!r.count(&urls)) return false;
    p.unexpected_request_urls.resize(urls);
    for (auto& u : p.unexpected_request_urls)
      if (!r.str(&u)) return false;
  }
  return true;
}

void encode_tls(Writer& w, const TlsTestResult& v) {
  w.u32(static_cast<std::uint32_t>(v.hosts.size()));
  for (const auto& h : v.hosts) {
    w.str(h.hostname);
    w.boolean(h.handshake_ok);
    w.boolean(h.chain_valid);
    w.boolean(h.fingerprint_matches);
    w.str(h.presented_issuer);
    w.i32(h.http_status);
    w.boolean(h.upgraded_to_https);
    w.boolean(h.upgrade_stripped);
    w.boolean(h.blocked_403);
    w.boolean(h.empty_200);
  }
}

bool decode_tls(Reader& r, TlsTestResult* v) {
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  v->hosts.resize(n);
  for (auto& h : v->hosts) {
    if (!(r.str(&h.hostname) && r.boolean(&h.handshake_ok) &&
          r.boolean(&h.chain_valid) && r.boolean(&h.fingerprint_matches) &&
          r.str(&h.presented_issuer) && r.i32(&h.http_status) &&
          r.boolean(&h.upgraded_to_https) && r.boolean(&h.upgrade_stripped) &&
          r.boolean(&h.blocked_403) && r.boolean(&h.empty_200)))
      return false;
  }
  return true;
}

void encode_recursive_origin(Writer& w, const RecursiveDnsOriginResult& v) {
  w.boolean(v.resolved);
  w.str(v.tag);
  w.boolean(v.resolver_seen.has_value());
  if (v.resolver_seen) w.addr(*v.resolver_seen);
  w.str(v.resolver_owner);
}

bool decode_recursive_origin(Reader& r, RecursiveDnsOriginResult* v) {
  if (!(r.boolean(&v->resolved) && r.str(&v->tag))) return false;
  bool has = false;
  if (!r.boolean(&has)) return false;
  if (has) {
    netsim::IpAddr a;
    if (!r.addr(&a)) return false;
    v->resolver_seen = a;
  } else {
    v->resolver_seen.reset();
  }
  return r.str(&v->resolver_owner);
}

void encode_pings(Writer& w, const PingProbeResult& v) {
  w.u32(static_cast<std::uint32_t>(v.targets.size()));
  for (const auto& t : v.targets) {
    w.str(t.name);
    w.addr(t.addr);
    w.boolean(t.rtt_ms.has_value());
    if (t.rtt_ms) w.f64(*t.rtt_ms);
  }
  w.u32(static_cast<std::uint32_t>(v.root_traceroute.size()));
  for (const auto& h : v.root_traceroute) {
    w.i32(h.ttl);
    w.boolean(h.router.has_value());
    if (h.router) w.addr(*h.router);
    w.f64(h.rtt_ms);
  }
}

bool decode_pings(Reader& r, PingProbeResult* v) {
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  v->targets.resize(n);
  for (auto& t : v->targets) {
    if (!(r.str(&t.name) && r.addr(&t.addr))) return false;
    bool has = false;
    if (!r.boolean(&has)) return false;
    if (has) {
      double rtt = 0.0;
      if (!r.f64(&rtt)) return false;
      t.rtt_ms = rtt;
    } else {
      t.rtt_ms.reset();
    }
  }
  if (!r.count(&n)) return false;
  v->root_traceroute.resize(n);
  for (auto& h : v->root_traceroute) {
    if (!r.i32(&h.ttl)) return false;
    bool has = false;
    if (!r.boolean(&has)) return false;
    if (has) {
      netsim::IpAddr a;
      if (!r.addr(&a)) return false;
      h.router = a;
    } else {
      h.router.reset();
    }
    if (!r.f64(&h.rtt_ms)) return false;
  }
  return true;
}

void encode_geo_api(Writer& w, const GeoApiResult& v) {
  w.boolean(v.answered);
  w.str(v.country_code);
  w.str(v.city);
}

bool decode_geo_api(Reader& r, GeoApiResult* v) {
  return r.boolean(&v->answered) && r.str(&v->country_code) && r.str(&v->city);
}

void encode_proxy(Writer& w, const ProxyDetectionResult& v) {
  w.boolean(v.request_succeeded);
  w.boolean(v.proxy_detected);
  w.boolean(v.headers_added);
  w.boolean(v.headers_rewritten);
  w.str(v.sent);
  w.str(v.received);
}

bool decode_proxy(Reader& r, ProxyDetectionResult* v) {
  return r.boolean(&v->request_succeeded) && r.boolean(&v->proxy_detected) &&
         r.boolean(&v->headers_added) && r.boolean(&v->headers_rewritten) &&
         r.str(&v->sent) && r.str(&v->received);
}

void encode_dns_leak(Writer& w, const DnsLeakResult& v) {
  w.i32(v.queries_issued);
  w.i32(v.plaintext_dns_on_physical_interface);
  w.i32(v.queries_failed);
  encode_error(w, v.last_error);
}

bool decode_dns_leak(Reader& r, DnsLeakResult* v) {
  return r.i32(&v->queries_issued) &&
         r.i32(&v->plaintext_dns_on_physical_interface) &&
         r.i32(&v->queries_failed) && decode_error(r, &v->last_error);
}

void encode_ipv6_leak(Writer& w, const Ipv6LeakResult& v) {
  w.i32(v.attempts);
  w.i32(v.v6_packets_on_physical_interface);
  w.i32(v.v6_connections_succeeded_outside_tunnel);
  w.i32(v.lookup_failures);
  w.i32(v.connect_failures);
  encode_error(w, v.last_error);
}

bool decode_ipv6_leak(Reader& r, Ipv6LeakResult* v) {
  return r.i32(&v->attempts) && r.i32(&v->v6_packets_on_physical_interface) &&
         r.i32(&v->v6_connections_succeeded_outside_tunnel) &&
         r.i32(&v->lookup_failures) && r.i32(&v->connect_failures) &&
         decode_error(r, &v->last_error);
}

void encode_tunnel_failure(Writer& w, const TunnelFailureResult& v) {
  w.boolean(v.failure_induced);
  w.f64(v.window_seconds);
  w.i32(v.probes_sent);
  w.i32(v.probes_escaped_clear);
  w.i32(v.probes_failed);
  encode_error(w, v.last_probe_error);
  w.u8(static_cast<std::uint8_t>(v.final_state));
}

bool decode_tunnel_failure(Reader& r, TunnelFailureResult* v) {
  return r.boolean(&v->failure_induced) && r.f64(&v->window_seconds) &&
         r.i32(&v->probes_sent) && r.i32(&v->probes_escaped_clear) &&
         r.i32(&v->probes_failed) && decode_error(r, &v->last_probe_error) &&
         r.enum8(&v->final_state,
                 static_cast<std::uint8_t>(vpn::ClientState::kTunnelFailedOpen));
}

void encode_pcap(Writer& w, const PcapScanResult& v) {
  w.u64(v.packets_scanned);
  w.i32(v.unexpected_inbound_dns);
  w.i32(v.unattributed_outbound_dns);
}

bool decode_pcap(Reader& r, PcapScanResult* v) {
  std::uint64_t scanned = 0;
  if (!r.u64(&scanned)) return false;
  v->packets_scanned = static_cast<std::size_t>(scanned);
  return r.i32(&v->unexpected_inbound_dns) &&
         r.i32(&v->unattributed_outbound_dns);
}

void encode_speed_test(Writer& w, const SpeedTestResult& v) {
  w.boolean(v.ran);
  w.f64(v.goodput_mbps);
  w.f64(v.base_rtt_ms);
  w.f64(v.min_rtt_ms);
  w.f64(v.queue_delay_mean_ms);
  w.f64(v.queue_delay_max_ms);
  w.f64(v.queue_delay_p50_ms);
  w.f64(v.queue_delay_p90_ms);
  w.f64(v.queue_delay_p99_ms);
  w.f64(v.loss_rate);
  w.f64(v.ecn_rate);
  w.u64(v.sent_packets);
  w.u64(v.delivered_packets);
  w.u64(v.queue_drops);
  w.u64(v.fault_drops);
  w.u64(v.ecn_marks);
  w.i32(v.cwnd_decreases);
}

bool decode_speed_test(Reader& r, SpeedTestResult* v) {
  return r.boolean(&v->ran) && r.f64(&v->goodput_mbps) &&
         r.f64(&v->base_rtt_ms) && r.f64(&v->min_rtt_ms) &&
         r.f64(&v->queue_delay_mean_ms) && r.f64(&v->queue_delay_max_ms) &&
         r.f64(&v->queue_delay_p50_ms) && r.f64(&v->queue_delay_p90_ms) &&
         r.f64(&v->queue_delay_p99_ms) && r.f64(&v->loss_rate) &&
         r.f64(&v->ecn_rate) && r.u64(&v->sent_packets) &&
         r.u64(&v->delivered_packets) && r.u64(&v->queue_drops) &&
         r.u64(&v->fault_drops) && r.u64(&v->ecn_marks) &&
         r.i32(&v->cwnd_decreases);
}

void encode_vantage_point(Writer& w, const VantagePointReport& vp) {
  w.str(vp.provider);
  w.str(vp.vantage_id);
  w.str(vp.advertised_country);
  w.str(vp.advertised_city);
  w.addr(vp.egress_addr);
  w.boolean(vp.connected);
  encode_degradation(w, vp.degradation);
  encode_metadata(w, vp.metadata);
  encode_dns_manipulation(w, vp.dns_manipulation);
  encode_dom_collection(w, vp.dom_collection);
  encode_tls(w, vp.tls);
  encode_recursive_origin(w, vp.recursive_origin);
  encode_pings(w, vp.pings);
  encode_geo_api(w, vp.geo_api);
  encode_proxy(w, vp.proxy);
  encode_dns_leak(w, vp.dns_leak);
  encode_ipv6_leak(w, vp.ipv6_leak);
  encode_tunnel_failure(w, vp.tunnel_failure);
  encode_pcap(w, vp.pcap);
  encode_speed_test(w, vp.speed_test);
}

bool decode_vantage_point(Reader& r, VantagePointReport* vp) {
  return r.str(&vp->provider) && r.str(&vp->vantage_id) &&
         r.str(&vp->advertised_country) && r.str(&vp->advertised_city) &&
         r.addr(&vp->egress_addr) && r.boolean(&vp->connected) &&
         decode_degradation(r, &vp->degradation) &&
         decode_metadata(r, &vp->metadata) &&
         decode_dns_manipulation(r, &vp->dns_manipulation) &&
         decode_dom_collection(r, &vp->dom_collection) &&
         decode_tls(r, &vp->tls) &&
         decode_recursive_origin(r, &vp->recursive_origin) &&
         decode_pings(r, &vp->pings) && decode_geo_api(r, &vp->geo_api) &&
         decode_proxy(r, &vp->proxy) && decode_dns_leak(r, &vp->dns_leak) &&
         decode_ipv6_leak(r, &vp->ipv6_leak) &&
         decode_tunnel_failure(r, &vp->tunnel_failure) &&
         decode_pcap(r, &vp->pcap) && decode_speed_test(r, &vp->speed_test);
}

}  // namespace

std::string encode_provider_report(const ProviderReport& report) {
  std::string out;
  out.reserve(4096);
  Writer w(out);
  w.u32(kShardReportFormatVersion);
  w.str(report.provider);
  w.u8(static_cast<std::uint8_t>(report.subscription));
  w.boolean(report.has_custom_client);
  w.boolean(report.quarantined);
  w.u32(static_cast<std::uint32_t>(report.vantage_points.size()));
  for (const auto& vp : report.vantage_points) encode_vantage_point(w, vp);
  return out;
}

bool decode_provider_report(std::string_view bytes, ProviderReport* out) {
  Reader r(bytes);
  std::uint32_t version = 0;
  if (!r.u32(&version) || version != kShardReportFormatVersion) return false;
  if (!r.str(&out->provider)) return false;
  if (!r.enum8(&out->subscription,
               static_cast<std::uint8_t>(vpn::SubscriptionType::kFree)))
    return false;
  if (!(r.boolean(&out->has_custom_client) && r.boolean(&out->quarantined)))
    return false;
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  out->vantage_points.resize(n);
  for (auto& vp : out->vantage_points)
    if (!decode_vantage_point(r, &vp)) return false;
  // Trailing bytes mean the artifact was written by something else (or
  // damaged in a length-preserving way the checksum should have caught);
  // a strict format rejects them.
  return r.done();
}

std::string encode_shard_census(const ScaledShardCensus& census) {
  std::string out;
  out.reserve(64 + census.provider.size());
  Writer w(out);
  w.u32(kShardCensusFormatVersion);
  w.str(census.provider);
  w.u32(census.vantage_points);
  w.u32(census.hosts);
  w.u32(census.clients);
  w.u32(census.modeled_subscribers);
  w.u64(census.address_fingerprint);
  return out;
}

bool decode_shard_census(std::string_view bytes, ScaledShardCensus* out) {
  Reader r(bytes);
  std::uint32_t version = 0;
  if (!r.u32(&version) || version != kShardCensusFormatVersion) return false;
  return r.str(&out->provider) && r.u32(&out->vantage_points) &&
         r.u32(&out->hosts) && r.u32(&out->clients) &&
         r.u32(&out->modeled_subscribers) && r.u64(&out->address_fingerprint) &&
         r.done();
}

std::uint64_t runner_options_fingerprint(const RunnerOptions& options) {
  // Canonical field-separated serialization, versioned so adding a future
  // option moves every fingerprint instead of silently aliasing old ones.
  std::string canon = "vpna-runner-options-v1\x1f";
  const auto field = [&canon](std::string_view v) {
    canon.append(v);
    canon.push_back('\x1f');
  };
  field(util::format("%zu", options.vantage_points_per_provider));
  field(options.respect_client_model ? "1" : "0");
  field(options.run_web_suites ? "1" : "0");
  field(util::format("%.17g", options.tunnel_failure_window_s));
  field(util::format("%d", options.connect_attempts));
  field(faults::profile_name(options.fault_profile));
  field(options.speed_test ? "1" : "0");
  field(util::format("%.17g", options.speed_test_options.duration_s));
  field(util::format("%u", options.speed_test_options.packet_bytes));
  return util::fnv1a(canon);
}

}  // namespace vpna::core
