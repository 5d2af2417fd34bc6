#include "netsim/routing.h"

#include <gtest/gtest.h>

namespace vpna::netsim {
namespace {

Route make_route(std::string_view cidr, std::string iface, int metric = 0) {
  return Route{*Cidr::parse(cidr), std::move(iface), std::nullopt, metric};
}

TEST(RouteTable, LongestPrefixWins) {
  RouteTable rt;
  rt.add(make_route("0.0.0.0/0", "eth0"));
  rt.add(make_route("10.0.0.0/8", "tun0"));
  rt.add(make_route("10.1.0.0/16", "eth1"));

  EXPECT_EQ(rt.lookup(IpAddr::v4(8, 8, 8, 8))->interface_name, "eth0");
  EXPECT_EQ(rt.lookup(IpAddr::v4(10, 9, 0, 1))->interface_name, "tun0");
  EXPECT_EQ(rt.lookup(IpAddr::v4(10, 1, 2, 3))->interface_name, "eth1");
}

TEST(RouteTable, MetricBreaksTies) {
  RouteTable rt;
  rt.add(make_route("0.0.0.0/0", "eth0", 10));
  rt.add(make_route("0.0.0.0/0", "tun0", 1));
  EXPECT_EQ(rt.lookup(IpAddr::v4(1, 1, 1, 1))->interface_name, "tun0");
}

TEST(RouteTable, NoRouteReturnsNullopt) {
  RouteTable rt;
  rt.add(make_route("10.0.0.0/8", "eth0"));
  EXPECT_EQ(rt.lookup(IpAddr::v4(11, 0, 0, 1)), nullptr);
}

TEST(RouteTable, FamiliesSeparate) {
  RouteTable rt;
  rt.add(make_route("0.0.0.0/0", "eth0"));
  // No v6 route: v6 lookups fail even with a v4 default present.
  EXPECT_EQ(rt.lookup(*IpAddr::parse("2001:db8::1")), nullptr);
  rt.add(Route{Cidr(IpAddr::v6({}), 0), "eth0", std::nullopt, 0});
  EXPECT_NE(rt.lookup(*IpAddr::parse("2001:db8::1")), nullptr);
}

TEST(RouteTable, RemoveByPrefixAndInterface) {
  RouteTable rt;
  rt.add(make_route("0.0.0.0/0", "eth0"));
  rt.add(make_route("0.0.0.0/0", "tun0"));
  EXPECT_EQ(rt.remove(*Cidr::parse("0.0.0.0/0"), "tun0"), 1u);
  EXPECT_EQ(rt.lookup(IpAddr::v4(1, 1, 1, 1))->interface_name, "eth0");
}

TEST(RouteTable, RemoveInterfacePurgesAll) {
  RouteTable rt;
  rt.add(make_route("0.0.0.0/0", "tun0"));
  rt.add(make_route("10.0.0.0/8", "tun0"));
  rt.add(make_route("0.0.0.0/0", "eth0"));
  EXPECT_EQ(rt.remove_interface("tun0"), 2u);
  EXPECT_EQ(rt.routes().size(), 1u);
}

TEST(RouteTable, DumpListsRoutes) {
  RouteTable rt;
  Route r = make_route("10.0.0.0/8", "eth0", 5);
  r.gateway = IpAddr::v4(10, 0, 0, 1);
  rt.add(r);
  const auto dump = rt.dump();
  EXPECT_NE(dump.find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(dump.find("eth0"), std::string::npos);
  EXPECT_NE(dump.find("via 10.0.0.1"), std::string::npos);
  EXPECT_NE(dump.find("metric 5"), std::string::npos);
}

TEST(RouteTable, HostRouteBeatsDefault) {
  RouteTable rt;
  rt.add(make_route("0.0.0.0/0", "tun0"));
  rt.add(make_route("45.0.32.10/32", "eth0"));  // pinned VPN-server route
  EXPECT_EQ(rt.lookup(IpAddr::v4(45, 0, 32, 10))->interface_name, "eth0");
  EXPECT_EQ(rt.lookup(IpAddr::v4(45, 0, 32, 11))->interface_name, "tun0");
}

TEST(RouteTable, InsertionOrderBreaksFullTies) {
  RouteTable rt;
  Route first = make_route("10.0.0.0/8", "tun0", 1);
  Route second = make_route("10.0.0.0/8", "eth0", 1);  // same prefix+metric
  rt.add(first);
  rt.add(second);
  EXPECT_EQ(rt.lookup(IpAddr::v4(10, 1, 2, 3))->interface_name, "tun0");
}

}  // namespace
}  // namespace vpna::netsim
