#include "core/report_codec.h"

#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/parallel_campaign.h"
#include "faults/profile.h"
#include "util/le_bytes.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::core {

namespace {

// ---- coders -----------------------------------------------------------------
// Each struct's wire layout is declared once, as an io(coder, value)
// template further down, and instantiated with both coders: the Writer
// sees the value as const and appends its fields, the Reader sees it as
// mutable and fills it. Both share one vocabulary and return bool so a
// field list chains with &&; the Writer never fails. A field added to the
// list is therefore written and read in the same place, by construction.

class Writer {
 public:
  static constexpr bool kWrites = true;

  explicit Writer(std::string& out) : out_(out) {}

  bool u8(std::uint8_t v) {
    out_.push_back(static_cast<char>(v));
    return true;
  }
  bool u16(std::uint16_t v) {
    util::put_le(out_, v);
    return true;
  }
  bool u32(std::uint32_t v) {
    util::put_le(out_, v);
    return true;
  }
  bool u64(std::uint64_t v) {
    util::put_le(out_, v);
    return true;
  }
  // Two's-complement via u32 so negative values round-trip exactly.
  bool i32(std::int32_t v) { return u32(static_cast<std::uint32_t>(v)); }
  bool size(std::size_t v) { return u64(v); }
  bool boolean(bool v) { return u8(v ? 1 : 0); }
  // Bit-exact: the payload must reproduce NaNs and signed zeros as the
  // runner produced them, not as printf would render them.
  bool f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  bool str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
    return true;
  }
  bool addr(const netsim::IpAddr& a) {
    u8(static_cast<std::uint8_t>(a.family()));
    for (auto b : a.bytes()) u8(b);
    return true;
  }
  template <typename E>
  bool enum8(E e, E /*last*/) {
    return u8(static_cast<std::uint8_t>(e));
  }
  bool version(std::uint32_t v) { return u32(v); }
  template <typename T, typename Each>
  bool seq(const std::vector<T>& v, Each each) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) each(*this, x);
    return true;
  }
  template <typename T, typename Each>
  bool opt(const std::optional<T>& o, Each each) {
    boolean(o.has_value());
    if (o) each(*this, *o);
    return true;
  }

 private:
  std::string& out_;
};

// Every accessor returns false on exhausted or invalid input and leaves
// the cursor unspecified; the first failure aborts the decode.
class Reader {
 public:
  static constexpr bool kWrites = false;

  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool done() const { return off_ == bytes_.size(); }

  bool u8(std::uint8_t& v) {
    if (bytes_.size() - off_ < 1) return false;
    v = static_cast<std::uint8_t>(bytes_[off_++]);
    return true;
  }
  bool u16(std::uint16_t& v) { return fixed(v); }
  bool u32(std::uint32_t& v) { return fixed(v); }
  bool u64(std::uint64_t& v) { return fixed(v); }
  bool i32(std::int32_t& v) {
    std::uint32_t raw = 0;
    if (!u32(raw)) return false;
    v = static_cast<std::int32_t>(raw);
    return true;
  }
  bool size(std::size_t& v) {
    std::uint64_t raw = 0;
    if (!u64(raw)) return false;
    v = static_cast<std::size_t>(raw);
    return true;
  }
  // Strict: only 0/1 are valid — a flipped bit in a bool is corruption,
  // not a new truth value.
  bool boolean(bool& v) {
    std::uint8_t raw = 0;
    if (!u8(raw) || raw > 1) return false;
    v = raw == 1;
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len) || bytes_.size() - off_ < len) return false;
    s.assign(bytes_.data() + off_, len);
    off_ += len;
    return true;
  }
  bool addr(netsim::IpAddr& a) {
    std::uint8_t family = 0;
    if (!u8(family) || family > 1) return false;
    std::array<std::uint8_t, 16> raw{};
    for (auto& b : raw)
      if (!u8(b)) return false;
    if (family == static_cast<std::uint8_t>(netsim::IpFamily::kV6)) {
      a = netsim::IpAddr::v6(raw);
      return true;
    }
    // v4 storage is the first 4 bytes; the rest must be zero in any
    // artifact we wrote ourselves.
    for (std::size_t i = 4; i < raw.size(); ++i)
      if (raw[i] != 0) return false;
    a = netsim::IpAddr::v4(raw[0], raw[1], raw[2], raw[3]);
    return true;
  }
  // Range-validated enum byte: `last` is the last valid enumerator.
  template <typename E>
  bool enum8(E& e, E last) {
    std::uint8_t raw = 0;
    if (!u8(raw) || raw > static_cast<std::uint8_t>(last)) return false;
    e = static_cast<E>(raw);
    return true;
  }
  // In-band format version: anything but an exact match is rejected.
  bool version(std::uint32_t expected) {
    std::uint32_t v = 0;
    return u32(v) && v == expected;
  }
  template <typename T, typename Each>
  bool seq(std::vector<T>& v, Each each) {
    // Element-count guard: each element of any encoded type costs at
    // least one byte, so a count beyond the remaining bytes can only be
    // corruption — reject before reserving memory for it.
    std::uint32_t n = 0;
    if (!u32(n) || n > bytes_.size() - off_) return false;
    v.resize(n);
    for (T& x : v)
      if (!each(*this, x)) return false;
    return true;
  }
  template <typename T, typename Each>
  bool opt(std::optional<T>& o, Each each) {
    bool has = false;
    if (!boolean(has)) return false;
    if (!has) {
      o.reset();
      return true;
    }
    return each(*this, o.emplace());
  }

 private:
  template <typename T>
  bool fixed(T& v) {
    if (bytes_.size() - off_ < sizeof(T)) return false;
    v = util::get_le<T>(bytes_.data() + off_);
    off_ += sizeof(T);
    return true;
  }

  std::string_view bytes_;
  std::size_t off_ = 0;
};

// The value type io() sees: const for the Writer, mutable for the Reader.
template <typename C, typename T>
using Ref = std::conditional_t<C::kWrites, const T&, T&>;

constexpr auto kStr = [](auto& c, auto& s) { return c.str(s); };
constexpr auto kAddr = [](auto& c, auto& a) { return c.addr(a); };
constexpr auto kF64 = [](auto& c, auto& d) { return c.f64(d); };

// ---- one field list per struct ----------------------------------------------

template <typename C>
bool io(C& c, Ref<C, transport::Error> e) {
  return c.enum8(e.kind, transport::ErrorKind::kRedirectLimit) &&
         c.enum8(e.status, netsim::TransactStatus::kTtlExpired) &&
         c.u16(e.code);
}

template <typename C>
bool io(C& c, Ref<C, Degradation> d) {
  return c.boolean(d.degraded) && c.str(d.stage) && io(c, d.error) &&
         c.i32(d.attempts) && c.u64(d.faults_seen);
}

template <typename C>
bool io(C& c, Ref<C, MetadataSnapshot> m) {
  return c.str(m.routing_table) && c.seq(m.dns_resolvers, kStr) &&
         c.seq(m.interfaces, kStr);
}

template <typename C>
bool io(C& c, Ref<C, DnsManipulationResult> v) {
  return c.i32(v.names_tested) &&
         c.seq(v.mismatches, [](C& c, auto& m) {
           return c.str(m.hostname) && c.str(m.via_default) &&
                  c.str(m.via_google) && c.str(m.default_owner) &&
                  c.str(m.google_owner) && c.boolean(m.suspicious);
         });
}

template <typename C>
bool io(C& c, Ref<C, DomCollectionResult> v) {
  return c.seq(v.pages, [](C& c, auto& p) {
    return c.str(p.hostname) && c.boolean(p.load_ok) &&
           c.enum8(p.redirect, RedirectClass::kUnrelated) &&
           c.str(p.final_host) && c.boolean(p.dom_matches_groundtruth) &&
           c.seq(p.unexpected_request_urls, kStr);
  });
}

template <typename C>
bool io(C& c, Ref<C, TlsTestResult> v) {
  return c.seq(v.hosts, [](C& c, auto& h) {
    return c.str(h.hostname) && c.boolean(h.handshake_ok) &&
           c.boolean(h.chain_valid) && c.boolean(h.fingerprint_matches) &&
           c.str(h.presented_issuer) && c.i32(h.http_status) &&
           c.boolean(h.upgraded_to_https) && c.boolean(h.upgrade_stripped) &&
           c.boolean(h.blocked_403) && c.boolean(h.empty_200);
  });
}

template <typename C>
bool io(C& c, Ref<C, RecursiveDnsOriginResult> v) {
  return c.boolean(v.resolved) && c.str(v.tag) &&
         c.opt(v.resolver_seen, kAddr) && c.str(v.resolver_owner);
}

template <typename C>
bool io(C& c, Ref<C, PingProbeResult> v) {
  return c.seq(v.targets,
               [](C& c, auto& t) {
                 return c.str(t.name) && c.addr(t.addr) &&
                        c.opt(t.rtt_ms, kF64);
               }) &&
         c.seq(v.root_traceroute, [](C& c, auto& h) {
           return c.i32(h.ttl) && c.opt(h.router, kAddr) && c.f64(h.rtt_ms);
         });
}

template <typename C>
bool io(C& c, Ref<C, GeoApiResult> v) {
  return c.boolean(v.answered) && c.str(v.country_code) && c.str(v.city);
}

template <typename C>
bool io(C& c, Ref<C, ProxyDetectionResult> v) {
  return c.boolean(v.request_succeeded) && c.boolean(v.proxy_detected) &&
         c.boolean(v.headers_added) && c.boolean(v.headers_rewritten) &&
         c.str(v.sent) && c.str(v.received);
}

template <typename C>
bool io(C& c, Ref<C, DnsLeakResult> v) {
  return c.i32(v.queries_issued) &&
         c.i32(v.plaintext_dns_on_physical_interface) &&
         c.i32(v.queries_failed) && io(c, v.last_error);
}

template <typename C>
bool io(C& c, Ref<C, Ipv6LeakResult> v) {
  return c.i32(v.attempts) && c.i32(v.v6_packets_on_physical_interface) &&
         c.i32(v.v6_connections_succeeded_outside_tunnel) &&
         c.i32(v.lookup_failures) && c.i32(v.connect_failures) &&
         io(c, v.last_error);
}

template <typename C>
bool io(C& c, Ref<C, TunnelFailureResult> v) {
  return c.boolean(v.failure_induced) && c.f64(v.window_seconds) &&
         c.i32(v.probes_sent) && c.i32(v.probes_escaped_clear) &&
         c.i32(v.probes_failed) && io(c, v.last_probe_error) &&
         c.enum8(v.final_state, vpn::ClientState::kTunnelFailedOpen);
}

template <typename C>
bool io(C& c, Ref<C, PcapScanResult> v) {
  return c.size(v.packets_scanned) && c.i32(v.unexpected_inbound_dns) &&
         c.i32(v.unattributed_outbound_dns);
}

template <typename C>
bool io(C& c, Ref<C, SpeedTestResult> v) {
  return c.boolean(v.ran) && c.f64(v.goodput_mbps) && c.f64(v.base_rtt_ms) &&
         c.f64(v.min_rtt_ms) && c.f64(v.queue_delay_mean_ms) &&
         c.f64(v.queue_delay_max_ms) && c.f64(v.queue_delay_p50_ms) &&
         c.f64(v.queue_delay_p90_ms) && c.f64(v.queue_delay_p99_ms) &&
         c.f64(v.loss_rate) && c.f64(v.ecn_rate) && c.u64(v.sent_packets) &&
         c.u64(v.delivered_packets) && c.u64(v.queue_drops) &&
         c.u64(v.fault_drops) && c.u64(v.ecn_marks) &&
         c.i32(v.cwnd_decreases);
}

template <typename C>
bool io(C& c, Ref<C, VantagePointReport> vp) {
  return c.str(vp.provider) && c.str(vp.vantage_id) &&
         c.str(vp.advertised_country) && c.str(vp.advertised_city) &&
         c.addr(vp.egress_addr) && c.boolean(vp.connected) &&
         io(c, vp.degradation) && io(c, vp.metadata) &&
         io(c, vp.dns_manipulation) && io(c, vp.dom_collection) &&
         io(c, vp.tls) && io(c, vp.recursive_origin) && io(c, vp.pings) &&
         io(c, vp.geo_api) && io(c, vp.proxy) && io(c, vp.dns_leak) &&
         io(c, vp.ipv6_leak) && io(c, vp.tunnel_failure) && io(c, vp.pcap) &&
         io(c, vp.speed_test);
}

template <typename C>
bool io(C& c, Ref<C, ProviderReport> r) {
  return c.version(kShardReportFormatVersion) && c.str(r.provider) &&
         c.enum8(r.subscription, vpn::SubscriptionType::kFree) &&
         c.boolean(r.has_custom_client) && c.boolean(r.quarantined) &&
         c.seq(r.vantage_points, [](C& c, auto& vp) { return io(c, vp); });
}

template <typename C>
bool io(C& c, Ref<C, ScaledShardCensus> s) {
  return c.version(kShardCensusFormatVersion) && c.str(s.provider) &&
         c.u32(s.vantage_points) && c.u32(s.hosts) && c.u32(s.clients) &&
         c.u32(s.modeled_subscribers) && c.u64(s.address_fingerprint);
}

template <typename T>
std::string encode(const T& value, std::size_t reserve) {
  std::string out;
  out.reserve(reserve);
  Writer w(out);
  io(w, value);
  return out;
}

// Trailing bytes mean the artifact was written by something else (or
// damaged in a length-preserving way the checksum should have caught); a
// strict format rejects them.
template <typename T>
bool decode(std::string_view bytes, T* out) {
  Reader r(bytes);
  return io(r, *out) && r.done();
}

}  // namespace

std::string encode_provider_report(const ProviderReport& report) {
  return encode(report, 4096);
}

bool decode_provider_report(std::string_view bytes, ProviderReport* out) {
  return decode(bytes, out);
}

std::string encode_shard_census(const ScaledShardCensus& census) {
  return encode(census, 64 + census.provider.size());
}

bool decode_shard_census(std::string_view bytes, ScaledShardCensus* out) {
  return decode(bytes, out);
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
