// Shard-report codec: randomized round-trip fuzzing (the cache soundness
// contract — encode(decode(encode(r))) must be byte-identical to
// encode(r) for arbitrary report contents, doubles bit-exact, optionals
// and empty vectors included) plus strict-decode rejection of malformed
// bytes. The whole suite runs under the ASan/UBSan CI lanes, so a decoder
// overread on truncated or mutated input is a hard failure here.
#include "core/report_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/parallel_campaign.h"
#include "util/rng.h"

namespace vpna {
namespace {

std::string random_string(util::Rng& rng, std::size_t max_len) {
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    out += static_cast<char>(rng.uniform_int(0, 255));
  return out;
}

// Doubles with teeth: specials (NaN, infinities, signed zero, denormal)
// drawn often enough that a printf-style lossy encoding would be caught.
double random_double(util::Rng& rng) {
  switch (rng.uniform_int(0, 9)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return -0.0;
    case 4:
      return std::numeric_limits<double>::denorm_min();
    default:
      return static_cast<double>(rng.uniform_int(-1'000'000, 1'000'000)) /
             997.0;
  }
}

bool random_bool(util::Rng& rng) { return rng.uniform_int(0, 1) == 1; }

std::int32_t random_i32(util::Rng& rng) {
  return static_cast<std::int32_t>(
      rng.uniform_int(std::numeric_limits<std::int32_t>::min(),
                      std::numeric_limits<std::int32_t>::max()));
}

netsim::IpAddr random_addr(util::Rng& rng) {
  if (random_bool(rng)) {
    std::array<std::uint8_t, 16> v6{};
    for (auto& b : v6) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return netsim::IpAddr::v6(v6);
  }
  return netsim::IpAddr::v4(
      static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
      static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
      static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
      static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
}

transport::Error random_error(util::Rng& rng) {
  transport::Error e;
  e.kind = static_cast<transport::ErrorKind>(rng.uniform_int(
      0, static_cast<std::int64_t>(transport::ErrorKind::kRedirectLimit)));
  e.status = static_cast<netsim::TransactStatus>(rng.uniform_int(
      0, static_cast<std::int64_t>(netsim::TransactStatus::kTtlExpired)));
  e.code = static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
  return e;
}

core::VantagePointReport random_vantage_point(util::Rng& rng) {
  core::VantagePointReport vp;
  vp.provider = random_string(rng, 24);
  vp.vantage_id = random_string(rng, 24);
  vp.advertised_country = random_string(rng, 4);
  vp.advertised_city = random_string(rng, 16);
  vp.egress_addr = random_addr(rng);
  vp.connected = random_bool(rng);

  vp.degradation.degraded = random_bool(rng);
  vp.degradation.stage = random_string(rng, 12);
  vp.degradation.error = random_error(rng);
  vp.degradation.attempts = random_i32(rng);
  vp.degradation.faults_seen = rng.next();

  vp.metadata.routing_table = random_string(rng, 64);
  vp.metadata.dns_resolvers.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& s : vp.metadata.dns_resolvers) s = random_string(rng, 20);
  vp.metadata.interfaces.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& s : vp.metadata.interfaces) s = random_string(rng, 20);

  vp.dns_manipulation.names_tested = random_i32(rng);
  vp.dns_manipulation.mismatches.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& m : vp.dns_manipulation.mismatches) {
    m.hostname = random_string(rng, 20);
    m.via_default = random_string(rng, 20);
    m.via_google = random_string(rng, 20);
    m.default_owner = random_string(rng, 20);
    m.google_owner = random_string(rng, 20);
    m.suspicious = random_bool(rng);
  }

  vp.dom_collection.pages.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& p : vp.dom_collection.pages) {
    p.hostname = random_string(rng, 20);
    p.load_ok = random_bool(rng);
    p.redirect = static_cast<core::RedirectClass>(rng.uniform_int(
        0, static_cast<std::int64_t>(core::RedirectClass::kUnrelated)));
    p.final_host = random_string(rng, 20);
    p.dom_matches_groundtruth = random_bool(rng);
    p.unexpected_request_urls.resize(
        static_cast<std::size_t>(rng.uniform_int(0, 2)));
    for (auto& u : p.unexpected_request_urls) u = random_string(rng, 40);
  }

  vp.tls.hosts.resize(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& h : vp.tls.hosts) {
    h.hostname = random_string(rng, 20);
    h.handshake_ok = random_bool(rng);
    h.chain_valid = random_bool(rng);
    h.fingerprint_matches = random_bool(rng);
    h.presented_issuer = random_string(rng, 20);
    h.http_status = random_i32(rng);
    h.upgraded_to_https = random_bool(rng);
    h.upgrade_stripped = random_bool(rng);
    h.blocked_403 = random_bool(rng);
    h.empty_200 = random_bool(rng);
  }

  vp.recursive_origin.resolved = random_bool(rng);
  vp.recursive_origin.tag = random_string(rng, 16);
  if (random_bool(rng)) vp.recursive_origin.resolver_seen = random_addr(rng);
  vp.recursive_origin.resolver_owner = random_string(rng, 16);

  vp.pings.targets.resize(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& t : vp.pings.targets) {
    t.name = random_string(rng, 16);
    t.addr = random_addr(rng);
    if (random_bool(rng)) t.rtt_ms = random_double(rng);
  }
  vp.pings.root_traceroute.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& h : vp.pings.root_traceroute) {
    h.ttl = random_i32(rng);
    if (random_bool(rng)) h.router = random_addr(rng);
    h.rtt_ms = random_double(rng);
  }

  vp.geo_api.answered = random_bool(rng);
  vp.geo_api.country_code = random_string(rng, 4);
  vp.geo_api.city = random_string(rng, 16);

  vp.proxy.request_succeeded = random_bool(rng);
  vp.proxy.proxy_detected = random_bool(rng);
  vp.proxy.headers_added = random_bool(rng);
  vp.proxy.headers_rewritten = random_bool(rng);
  vp.proxy.sent = random_string(rng, 60);
  vp.proxy.received = random_string(rng, 60);

  vp.dns_leak.queries_issued = random_i32(rng);
  vp.dns_leak.plaintext_dns_on_physical_interface = random_i32(rng);
  vp.dns_leak.queries_failed = random_i32(rng);
  vp.dns_leak.last_error = random_error(rng);

  vp.ipv6_leak.attempts = random_i32(rng);
  vp.ipv6_leak.v6_packets_on_physical_interface = random_i32(rng);
  vp.ipv6_leak.v6_connections_succeeded_outside_tunnel = random_i32(rng);
  vp.ipv6_leak.lookup_failures = random_i32(rng);
  vp.ipv6_leak.connect_failures = random_i32(rng);
  vp.ipv6_leak.last_error = random_error(rng);

  vp.tunnel_failure.failure_induced = random_bool(rng);
  vp.tunnel_failure.window_seconds = random_double(rng);
  vp.tunnel_failure.probes_sent = random_i32(rng);
  vp.tunnel_failure.probes_escaped_clear = random_i32(rng);
  vp.tunnel_failure.probes_failed = random_i32(rng);
  vp.tunnel_failure.last_probe_error = random_error(rng);
  vp.tunnel_failure.final_state = static_cast<vpn::ClientState>(rng.uniform_int(
      0, static_cast<std::int64_t>(vpn::ClientState::kTunnelFailedOpen)));

  vp.pcap.packets_scanned = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  vp.pcap.unexpected_inbound_dns = random_i32(rng);
  vp.pcap.unattributed_outbound_dns = random_i32(rng);

  vp.speed_test.ran = random_bool(rng);
  vp.speed_test.goodput_mbps = random_double(rng);
  vp.speed_test.base_rtt_ms = random_double(rng);
  vp.speed_test.min_rtt_ms = random_double(rng);
  vp.speed_test.queue_delay_mean_ms = random_double(rng);
  vp.speed_test.queue_delay_max_ms = random_double(rng);
  vp.speed_test.queue_delay_p50_ms = random_double(rng);
  vp.speed_test.queue_delay_p90_ms = random_double(rng);
  vp.speed_test.queue_delay_p99_ms = random_double(rng);
  vp.speed_test.loss_rate = random_double(rng);
  vp.speed_test.ecn_rate = random_double(rng);
  vp.speed_test.sent_packets = rng.next();
  vp.speed_test.delivered_packets = rng.next();
  vp.speed_test.queue_drops = rng.next();
  vp.speed_test.fault_drops = rng.next();
  vp.speed_test.ecn_marks = rng.next();
  vp.speed_test.cwnd_decreases = random_i32(rng);
  return vp;
}

core::ProviderReport random_report(util::Rng& rng) {
  core::ProviderReport r;
  r.provider = random_string(rng, 32);
  r.subscription = static_cast<vpn::SubscriptionType>(rng.uniform_int(
      0, static_cast<std::int64_t>(vpn::SubscriptionType::kFree)));
  r.has_custom_client = random_bool(rng);
  r.quarantined = random_bool(rng);
  r.vantage_points.resize(static_cast<std::size_t>(rng.uniform_int(0, 4)));
  for (auto& vp : r.vantage_points) vp = random_vantage_point(rng);
  return r;
}

class ReportCodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReportCodecFuzz, EncodeDecodeEncodeIsByteIdentical) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const auto report = random_report(rng);
    const std::string first = core::encode_provider_report(report);
    core::ProviderReport decoded;
    ASSERT_TRUE(core::decode_provider_report(first, &decoded))
        << "iteration " << i;
    EXPECT_EQ(decoded.provider, report.provider);
    ASSERT_EQ(decoded.vantage_points.size(), report.vantage_points.size());
    const std::string second = core::encode_provider_report(decoded);
    ASSERT_EQ(first, second) << "iteration " << i;
  }
}

TEST_P(ReportCodecFuzz, TruncationAtEveryPrefixIsRejected) {
  util::Rng rng(GetParam() ^ 0x7717ull);
  const auto report = random_report(rng);
  const std::string valid = core::encode_provider_report(report);
  core::ProviderReport out;
  for (std::size_t len = 0; len < valid.size(); ++len)
    EXPECT_FALSE(core::decode_provider_report(valid.substr(0, len), &out))
        << "prefix of " << len << " bytes decoded";
}

TEST_P(ReportCodecFuzz, TrailingBytesAreRejected) {
  util::Rng rng(GetParam() + 17);
  const auto report = random_report(rng);
  std::string bytes = core::encode_provider_report(report);
  bytes.push_back('\0');
  core::ProviderReport out;
  EXPECT_FALSE(core::decode_provider_report(bytes, &out));
}

TEST_P(ReportCodecFuzz, MutatedBytesNeverCrash) {
  util::Rng rng(GetParam() ^ 0xfeedull);
  const auto report = random_report(rng);
  const std::string valid = core::encode_provider_report(report);
  for (int i = 0; i < 300; ++i) {
    std::string bytes = valid;
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          bytes[pos] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 1:
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                       static_cast<char>(rng.uniform_int(0, 255)));
          break;
        default:
          bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
          break;
      }
    }
    core::ProviderReport out;
    // Decoding may succeed (a mutation can land in string content) — but a
    // successful decode must re-encode to exactly the mutated input.
    if (core::decode_provider_report(bytes, &out)) {
      EXPECT_EQ(core::encode_provider_report(out), bytes);
    }
  }
}

TEST_P(ReportCodecFuzz, RandomGarbageNeverCrash) {
  util::Rng rng(GetParam() + 0xabcdull);
  for (int i = 0; i < 200; ++i) {
    const auto len =
        static_cast<std::size_t>(rng.uniform_int(0, 600));
    std::string garbage;
    garbage.reserve(len);
    for (std::size_t b = 0; b < len; ++b)
      garbage += static_cast<char>(rng.uniform_int(0, 255));
    core::ProviderReport out;
    (void)core::decode_provider_report(garbage, &out);
    core::ScaledShardCensus census;
    (void)core::decode_shard_census(garbage, &census);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReportCodecFuzz,
                         ::testing::Values(1ull, 20181031ull,
                                           0x9e3779b97f4a7c15ull));

core::ScaledShardCensus random_census(util::Rng& rng) {
  const auto u32 = [&rng] {
    return static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffll));
  };
  core::ScaledShardCensus c;
  c.provider = random_string(rng, 32);
  c.vantage_points = u32();
  c.hosts = u32();
  c.clients = u32();
  c.modeled_subscribers = u32();
  c.address_fingerprint = rng.next();
  return c;
}

// One to four byte flips, inserts, erases or truncations.
std::string mutate(util::Rng& rng, std::string bytes) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        bytes[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                     static_cast<char>(rng.uniform_int(0, 255)));
        break;
      case 2:
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      default:
        bytes.resize(pos);
        break;
    }
  }
  return bytes;
}

// Streaming FNV-1a over length-prefixed chunks, so chunk boundaries count.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void chunk(std::string_view s) {
    for (int i = 0; i < 8; ++i)
      byte(static_cast<std::uint8_t>(std::uint64_t{s.size()} >> (8 * i)));
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

// Golden wire pins for both codecs: the hash of every encoding of a seeded
// random corpus, and the hash of (accepted?, re-encoded bytes) over mutated
// copies of it. Any change to the bytes written or to what decoding accepts
// moves a pin; a pin may only move together with a format-version bump.
TEST(ReportCodec, EncodingsAndVerdictsArePinned) {
  Fnv report_bytes, report_verdicts, census_bytes, census_verdicts;
  int reports_accepted = 0, census_accepted = 0;
  for (const std::uint64_t seed : {1ull, 20181031ull, 0x9e3779b97f4a7c15ull}) {
    util::Rng rng(seed ^ 0x9111ull);
    for (int i = 0; i < 80; ++i) {
      const std::string valid =
          core::encode_provider_report(random_report(rng));
      report_bytes.chunk(valid);
      for (int m = 0; m < 40; ++m) {
        core::ProviderReport out;
        const bool ok = core::decode_provider_report(mutate(rng, valid), &out);
        report_verdicts.byte(ok ? 1 : 0);
        reports_accepted += ok ? 1 : 0;
        if (ok) report_verdicts.chunk(core::encode_provider_report(out));
      }
    }
  }
  util::Rng rng(0xce5505ull);
  for (int i = 0; i < 800; ++i) {
    const std::string valid = core::encode_shard_census(random_census(rng));
    census_bytes.chunk(valid);
    for (int m = 0; m < 4; ++m) {
      core::ScaledShardCensus out;
      const bool ok = core::decode_shard_census(mutate(rng, valid), &out);
      census_verdicts.byte(ok ? 1 : 0);
      census_accepted += ok ? 1 : 0;
      if (ok) census_verdicts.chunk(core::encode_shard_census(out));
    }
  }
  // Both verdicts occur often enough that the verdict pins mean something.
  EXPECT_EQ(reports_accepted, 529);  // of 9600
  EXPECT_EQ(census_accepted, 347);    // of 3200
  EXPECT_EQ(report_bytes.h, 0x4c355f6a2a43e136ull);
  EXPECT_EQ(report_verdicts.h, 0x81a58e289b344d33ull);
  EXPECT_EQ(census_bytes.h, 0xec74b97ed0c854a0ull);
  EXPECT_EQ(census_verdicts.h, 0x3f928090c3f56c69ull);
}

TEST(ReportCodec, VersionMismatchIsRejected) {
  core::ProviderReport report;
  report.provider = "X";
  std::string bytes = core::encode_provider_report(report);
  bytes[0] = static_cast<char>(bytes[0] + 1);  // little-endian version word
  core::ProviderReport out;
  EXPECT_FALSE(core::decode_provider_report(bytes, &out));
}

TEST(ReportCodec, CensusRoundTripsAndRejectsMalformedBytes) {
  core::ScaledShardCensus census;
  census.provider = "ScaledVPN-0042";
  census.vantage_points = 7;
  census.hosts = 19;
  census.clients = 4;
  census.modeled_subscribers = 123456;
  census.address_fingerprint = 0x0123456789abcdefull;
  const std::string bytes = core::encode_shard_census(census);
  core::ScaledShardCensus out;
  ASSERT_TRUE(core::decode_shard_census(bytes, &out));
  EXPECT_EQ(out.provider, census.provider);
  EXPECT_EQ(out.vantage_points, census.vantage_points);
  EXPECT_EQ(out.hosts, census.hosts);
  EXPECT_EQ(out.clients, census.clients);
  EXPECT_EQ(out.modeled_subscribers, census.modeled_subscribers);
  EXPECT_EQ(out.address_fingerprint, census.address_fingerprint);
  EXPECT_EQ(core::encode_shard_census(out), bytes);

  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(core::decode_shard_census(bytes.substr(0, len), &out));
  std::string trailing = bytes;
  trailing.push_back('\0');
  EXPECT_FALSE(core::decode_shard_census(trailing, &out));
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(wrong_version[0] + 1);
  EXPECT_FALSE(core::decode_shard_census(wrong_version, &out));
}

TEST(ReportCodec, RunnerOptionsFingerprintTracksPayloadAffectingOptions) {
  const core::RunnerOptions base;
  const auto fp = core::runner_options_fingerprint(base);
  EXPECT_EQ(fp, core::runner_options_fingerprint(base));  // stable

  auto vps = base;
  vps.vantage_points_per_provider += 1;
  auto web = base;
  web.run_web_suites = !base.run_web_suites;
  auto window = base;
  window.tunnel_failure_window_s += 0.25;
  auto attempts = base;
  attempts.connect_attempts += 1;
  auto faults = base;
  faults.fault_profile = faults::FaultProfile::kFlaky;
  auto speed = base;
  speed.speed_test = !base.speed_test;
  auto client_model = base;
  client_model.respect_client_model = !base.respect_client_model;
  auto duration = base;
  duration.speed_test_options.duration_s += 0.5;
  auto packet = base;
  packet.speed_test_options.packet_bytes += 100;
  for (const auto& changed : {vps, web, window, attempts, faults, speed,
                              client_model, duration, packet})
    EXPECT_NE(core::runner_options_fingerprint(changed), fp);
}

}  // namespace
}  // namespace vpna
