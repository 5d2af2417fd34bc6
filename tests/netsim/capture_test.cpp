#include "netsim/capture.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace vpna::netsim {
namespace {

Packet dns_packet() {
  Packet p;
  p.src = IpAddr::v4(71, 80, 0, 10);
  p.dst = IpAddr::v4(8, 8, 8, 8);
  p.proto = Proto::kUdp;
  p.dst_port = 53;
  p.payload = "DNSQ|1|0|example.com";
  return p;
}

TEST(CaptureBuffer, RecordsInOrder) {
  CaptureBuffer cap;
  cap.record(util::SimTime::from_millis(1), Direction::kOut, "eth0",
             dns_packet());
  cap.record(util::SimTime::from_millis(2), Direction::kIn, "tun0",
             dns_packet());
  ASSERT_EQ(cap.size(), 2u);
  EXPECT_LT(cap.records()[0].time, cap.records()[1].time);
  EXPECT_EQ(cap.records()[0].interface_name, "eth0");
}

TEST(CaptureBuffer, FilterByInterface) {
  CaptureBuffer cap;
  cap.record({}, Direction::kOut, "eth0", dns_packet());
  cap.record({}, Direction::kOut, "tun0", dns_packet());
  cap.record({}, Direction::kOut, "eth0", dns_packet());
  const auto on = [&cap](std::string_view name) {
    return std::count_if(
        cap.records().begin(), cap.records().end(),
        [name](const CaptureRecord& r) { return r.interface_name == name; });
  };
  EXPECT_EQ(on("eth0"), 2);
  EXPECT_EQ(on("tun0"), 1);
  EXPECT_EQ(on("wlan0"), 0);
}

TEST(CaptureBuffer, FilterByPredicate) {
  CaptureBuffer cap;
  auto dns = dns_packet();
  auto web = dns_packet();
  web.dst_port = 80;
  web.proto = Proto::kTcp;
  cap.record({}, Direction::kOut, "eth0", dns);
  cap.record({}, Direction::kOut, "eth0", web);
  const auto dns_only = std::count_if(
      cap.records().begin(), cap.records().end(), [](const CaptureRecord& r) {
        return r.packet.dst_port == 53 && r.packet.proto == Proto::kUdp;
      });
  EXPECT_EQ(dns_only, 1);
}

TEST(CaptureBuffer, ClearEmpties) {
  CaptureBuffer cap;
  cap.record({}, Direction::kOut, "eth0", dns_packet());
  cap.clear();
  EXPECT_EQ(cap.size(), 0u);
}

TEST(CaptureBuffer, DisabledBufferRecordsNothing) {
  CaptureBuffer cap;
  cap.set_enabled(false);
  cap.record({}, Direction::kOut, "eth0", dns_packet());
  EXPECT_EQ(cap.size(), 0u);
  cap.set_enabled(true);
  cap.record({}, Direction::kOut, "eth0", dns_packet());
  EXPECT_EQ(cap.size(), 1u);
}

TEST(CaptureBuffer, DumpRendersRecords) {
  CaptureBuffer cap;
  cap.record(util::SimTime::from_millis(1234), Direction::kOut, "eth0",
             dns_packet());
  auto tunneled = dns_packet();
  tunneled.payload = encode_inner(dns_packet());
  cap.record(util::SimTime::from_millis(1235), Direction::kIn, "eth0",
             tunneled);
  const auto text = cap.dump();
  EXPECT_NE(text.find("eth0"), std::string::npos);
  EXPECT_NE(text.find("OUT"), std::string::npos);
  EXPECT_NE(text.find("71.80.0.10"), std::string::npos);
  EXPECT_NE(text.find("8.8.8.8:53"), std::string::npos);
  EXPECT_NE(text.find("[tunnel]"), std::string::npos);
  EXPECT_NE(text.find("1.234s"), std::string::npos);
}

TEST(CaptureBuffer, RecordKeepsHeaderAndPayloadSize) {
  CaptureBuffer cap;
  const auto dns = dns_packet();
  auto tunneled = dns_packet();
  tunneled.ttl = 9;
  tunneled.payload = encode_inner(dns);
  cap.record({}, Direction::kOut, "tun0", dns);
  cap.record({}, Direction::kOut, "eth0", tunneled);
  ASSERT_EQ(cap.size(), 2u);
  const auto& clear = cap.records()[0];
  EXPECT_EQ(clear.packet.src, dns.src);
  EXPECT_EQ(clear.packet.dst, dns.dst);
  EXPECT_EQ(clear.packet.proto, Proto::kUdp);
  EXPECT_EQ(clear.packet.dst_port, 53);
  EXPECT_EQ(clear.payload_size, dns.payload.size());
  EXPECT_FALSE(clear.encapsulated);
  const auto& frame = cap.records()[1];
  EXPECT_EQ(frame.packet.ttl, 9);
  EXPECT_EQ(frame.payload_size, tunneled.payload.size());
  EXPECT_TRUE(frame.encapsulated);
  EXPECT_NE(cap.dump().find(
                "len=" + std::to_string(tunneled.payload.size()) + " [tunnel]"),
            std::string::npos);
}

TEST(CaptureBuffer, DumpTruncatesAtMaxLines) {
  CaptureBuffer cap;
  for (int i = 0; i < 10; ++i)
    cap.record({}, Direction::kOut, "eth0", dns_packet());
  const auto text = cap.dump(3);
  EXPECT_NE(text.find("... 7 more record(s)"), std::string::npos);
}

}  // namespace
}  // namespace vpna::netsim
