#include "netsim/routing_plane.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "netsim/network.h"
#include "util/rng.h"

namespace vpna::netsim {
namespace {

// Independent reference: plain Dijkstra distances (no path reconstruction),
// the oracle the plane's parent matrix is checked against.
std::vector<double> reference_distances(const RoutingPlane::Adjacency& adj,
                                        RouterId src) {
  constexpr double kInf = 1e18;
  std::vector<double> dist(adj.size(), kInf);
  using QE = std::pair<double, RouterId>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> q;
  dist[src] = 0;
  q.emplace(0.0, src);
  while (!q.empty()) {
    const auto [d, u] = q.top();
    q.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, w] : adj[u])
      if (dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        q.emplace(dist[v], v);
      }
  }
  return dist;
}

// Random connected graph: spanning tree plus extra (possibly parallel)
// edges, mirroring how Network stores each undirected link in both rows.
RoutingPlane::Adjacency random_graph(util::Rng& rng, std::size_t n,
                                     std::size_t extra_edges) {
  RoutingPlane::Adjacency adj(n);
  const auto link = [&](RouterId a, RouterId b, double w) {
    adj[a].emplace_back(b, w);
    adj[b].emplace_back(a, w);
  };
  for (std::size_t i = 1; i < n; ++i)
    link(static_cast<RouterId>(i),
         static_cast<RouterId>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)),
         rng.uniform(0.5, 40.0));
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const auto a = static_cast<RouterId>(rng.index(n));
    const auto b = static_cast<RouterId>(rng.index(n));
    if (a == b) continue;
    link(a, b, rng.uniform(0.5, 40.0));
  }
  return adj;
}

double min_link(const RoutingPlane::Adjacency& adj, RouterId u, RouterId v) {
  double best = 1e18;
  for (const auto& [peer, w] : adj[u])
    if (peer == v && w < best) best = w;
  return best;
}

TEST(RoutingPlane, RandomGraphsMatchReferenceDijkstra) {
  util::Rng rng(20180331);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 40));
    const auto adj = random_graph(rng, n, n);
    const auto plane = RoutingPlane::build(adj);
    ASSERT_EQ(plane->router_count(), n);

    std::vector<RouterId> path;
    for (RouterId src = 0; src < n; ++src) {
      const auto dist = reference_distances(adj, src);
      for (RouterId dst = 0; dst < n; ++dst) {
        ASSERT_TRUE(plane->reachable(src, dst));  // graphs are connected
        path.clear();
        ASSERT_TRUE(plane->append_path(src, dst, path));
        ASSERT_GE(path.size(), 1u);
        EXPECT_EQ(path.front(), src);
        EXPECT_EQ(path.back(), dst);
        // Every step is a real edge, and the fold-left sum of minimal link
        // weights reproduces the reference distance exactly (the same
        // accumulation order Dijkstra used).
        double total = 0.0;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const double w = min_link(adj, path[i], path[i + 1]);
          ASSERT_LT(w, 1e18);
          total += w;
        }
        EXPECT_EQ(total, dist[dst]);
      }
    }
  }
}

TEST(RoutingPlane, DisconnectedPairsReportUnreachable) {
  // Two components: {0,1} and {2,3}.
  RoutingPlane::Adjacency adj(4);
  adj[0].emplace_back(1, 1.0);
  adj[1].emplace_back(0, 1.0);
  adj[2].emplace_back(3, 2.0);
  adj[3].emplace_back(2, 2.0);
  const auto plane = RoutingPlane::build(adj);
  EXPECT_TRUE(plane->reachable(0, 1));
  EXPECT_FALSE(plane->reachable(0, 2));
  EXPECT_FALSE(plane->reachable(3, 1));
  std::vector<RouterId> path{99};
  EXPECT_FALSE(plane->append_path(0, 3, path));
  EXPECT_EQ(path.size(), 1u);  // nothing appended on failure
}

// Seeded churn against the reference: random graphs grow by routers,
// leaves' first links, core links and leaves' second links, interleaved
// with path queries. After every step each attached pair's base latency
// must equal the reference Dijkstra over the full adjacency plus access
// latencies, exactly. Leaf growth keeps the plane object; any other link
// replaces it.
TEST(RoutingPlane, SeededChurnMatchesReferenceDijkstra) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 25));
    auto adj = random_graph(rng, n, n / 2);

    util::SimClock clock;
    Network net(clock, util::Rng(7), /*jitter_stddev_ms=*/0.0);
    std::vector<std::unique_ptr<Host>> hosts;
    std::vector<double> access;
    const auto attach = [&](RouterId r) {
      hosts.push_back(std::make_unique<Host>("h"));
      access.push_back(rng.uniform(0.1, 2.0));
      net.attach_host(*hosts.back(), r, access.back());
    };
    for (std::size_t i = 0; i < n; ++i) attach(net.add_router("r"));
    const auto link = [&](RouterId a, RouterId b, double w) {
      net.add_link(a, b, w);
      adj[a].emplace_back(b, w);
      adj[b].emplace_back(a, w);
    };
    // Insert each undirected edge once, in adjacency order.
    {
      const auto graph = std::exchange(adj, RoutingPlane::Adjacency(n));
      for (RouterId u = 0; u < n; ++u)
        for (const auto& [v, w] : graph[u])
          if (u < v) link(u, v, w);
    }

    const auto check_all_pairs = [&](int step) {
      for (RouterId i = 0; i < hosts.size(); ++i) {
        const auto dist = reference_distances(adj, i);
        for (RouterId j = 0; j < hosts.size(); ++j) {
          const auto got = net.base_latency_ms(*hosts[i], *hosts[j]);
          ASSERT_EQ(got.has_value(), dist[j] < 1e18)
              << "trial " << trial << " step " << step << " pair " << i
              << "->" << j;
          if (got) {
            ASSERT_EQ(*got, access[i] + dist[j] + access[j])
                << "trial " << trial << " step " << step << " pair " << i
                << "->" << j;
          }
        }
      }
    };
    check_all_pairs(-1);

    for (int step = 0; step < 24; ++step) {
      const auto before = net.routing_plane();
      const std::size_t covered = before->router_count();
      std::vector<RouterId> unlinked, single;  // leaves by degree
      for (auto r = static_cast<RouterId>(covered); r < adj.size(); ++r)
        (adj[r].empty() ? unlinked : single).push_back(r);
      const auto any_covered = [&] {
        return static_cast<RouterId>(rng.index(covered));
      };
      const double w = rng.uniform(0.1, 30.0);
      bool keeps_plane = true;
      switch (rng.index(4)) {
        case 0: {
          const RouterId r = net.add_router("leaf");
          adj.emplace_back();
          attach(r);
          break;
        }
        case 1: {
          if (unlinked.empty()) continue;
          const RouterId leaf = unlinked[rng.index(unlinked.size())];
          link(leaf, any_covered(), w);
          break;
        }
        case 2: {
          const RouterId a = any_covered();
          RouterId b = any_covered();
          if (a == b) b = static_cast<RouterId>((a + 1) % covered);
          link(a, b, w);
          keeps_plane = false;
          break;
        }
        default: {
          if (single.empty()) continue;
          const RouterId leaf = single[rng.index(single.size())];
          RouterId gw = any_covered();
          if (gw == adj[leaf].front().first)
            gw = static_cast<RouterId>((gw + 1) % covered);
          link(leaf, gw, w);
          keeps_plane = false;
          break;
        }
      }
      if (keeps_plane) {
        EXPECT_EQ(net.routing_plane().get(), before.get()) << "step " << step;
      } else {
        EXPECT_NE(net.routing_plane().get(), before.get()) << "step " << step;
        EXPECT_EQ(net.routing_plane()->router_count(), adj.size());
      }
      check_all_pairs(step);
    }
  }
}

// A triangle whose shortest a->c path (via b, 10 ms) beats the direct
// 20 ms link.
class FrozenTriangle : public ::testing::Test {
 protected:
  FrozenTriangle() : net_(clock_, util::Rng(3), 0.0) {
    a_ = net_.add_router("a");
    b_ = net_.add_router("b");
    c_ = net_.add_router("c");
    net_.add_link(a_, b_, 5.0);
    net_.add_link(b_, c_, 5.0);
    net_.add_link(a_, c_, 20.0);
  }
  util::SimClock clock_;
  Network net_;
  RouterId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(FrozenTriangle, AdoptRejectsMismatchedFingerprint) {
  // A plane from a different topology (two routers, one link).
  util::SimClock clock2;
  Network other(clock2, util::Rng(4), 0.0);
  other.add_router("x");
  other.add_router("y");
  other.add_link(0, 1, 1.0);
  EXPECT_THROW(net_.adopt_routing_plane(other.routing_plane()),
               std::logic_error);
  EXPECT_THROW(net_.adopt_routing_plane(nullptr), std::logic_error);
  // Same routers and peers, one latency off by a bit: still foreign.
  Network near(clock2, util::Rng(4), 0.0);
  near.add_router("a");
  near.add_router("b");
  near.add_router("c");
  near.add_link(0, 1, 5.0);
  near.add_link(1, 2, std::nextafter(5.0, 6.0));
  near.add_link(0, 2, 20.0);
  EXPECT_THROW(net_.adopt_routing_plane(near.routing_plane()),
               std::logic_error);
  // A plane that covers fewer routers than the network holds.
  const auto plane = net_.routing_plane();
  (void)net_.add_router("leaf");
  EXPECT_THROW(net_.adopt_routing_plane(plane), std::logic_error);
}

TEST_F(FrozenTriangle, AdoptAcceptsTwinTopologyAndSharesPlane) {
  util::SimClock clock2;
  Network twin(clock2, util::Rng(99), 0.0);  // different rng: irrelevant
  twin.add_router("a");
  twin.add_router("b");
  twin.add_router("c");
  twin.add_link(0, 1, 5.0);
  twin.add_link(1, 2, 5.0);
  twin.add_link(0, 2, 20.0);
  twin.adopt_routing_plane(net_.routing_plane());
  EXPECT_EQ(twin.routing_plane().get(), net_.routing_plane().get());
  // The adopted plane grows leaves like a built one.
  const auto leaf = twin.add_router("leaf");
  twin.add_link(leaf, 2, 1.0);
  EXPECT_EQ(twin.routing_plane().get(), net_.routing_plane().get());
  Host ha("ha"), hl("hl");
  twin.attach_host(ha, 0, 0.0);
  twin.attach_host(hl, leaf, 0.0);
  EXPECT_EQ(twin.base_latency_ms(ha, hl), 11.0);  // a-b-c 10 + leaf link 1
}

TEST_F(FrozenTriangle, CoreLinkRebuildsPlane) {
  const auto plane = net_.routing_plane();
  ASSERT_NE(plane, nullptr);
  Host ha("ha"), hc("hc");
  net_.attach_host(ha, a_, 0.0);
  net_.attach_host(hc, c_, 0.0);
  // a->c goes via b (5+5) not the direct 20ms link.
  EXPECT_EQ(net_.base_latency_ms(ha, hc), 10.0);
  // Rewire the core: a 1ms a-c shortcut. The plane is stale, must go.
  net_.add_link(a_, c_, 1.0);
  EXPECT_EQ(net_.base_latency_ms(ha, hc), 1.0);  // from a rebuilt plane
  EXPECT_NE(net_.routing_plane().get(), plane.get());
  EXPECT_EQ(net_.routing_plane()->router_count(), 3u);
}

TEST_F(FrozenTriangle, SecondLeafLinkInvalidatesPlane) {
  const auto plane = net_.routing_plane();
  const auto leaf = net_.add_router("leaf");
  net_.add_link(leaf, a_, 1.0);
  EXPECT_EQ(net_.routing_plane().get(), plane.get());  // a leaf extends it
  net_.add_link(leaf, c_, 1.0);  // multi-homed: no longer a leaf
  const auto rebuilt = net_.routing_plane();
  EXPECT_NE(rebuilt.get(), plane.get());
  EXPECT_EQ(rebuilt->router_count(), 4u);  // the former leaf is covered
  Host hl("hl"), hc("hc");
  net_.attach_host(hl, leaf, 0.0);
  net_.attach_host(hc, c_, 0.0);
  EXPECT_EQ(net_.base_latency_ms(hl, hc), 1.0);  // the second link
}

TEST_F(FrozenTriangle, UnlinkedLeafIsUnreachableUntilLinked) {
  (void)net_.routing_plane();
  const auto leaf = net_.add_router("leaf");
  Host hl("hl"), ha("ha");
  net_.attach_host(hl, leaf, 0.0);
  net_.attach_host(ha, a_, 0.0);
  EXPECT_FALSE(net_.base_latency_ms(ha, hl).has_value());
  EXPECT_EQ(net_.base_latency_ms(hl, hl), 0.0);
  net_.add_link(leaf, b_, 2.0);
  EXPECT_EQ(net_.base_latency_ms(ha, hl), 7.0);  // a-b 5 + leaf link 2
}

TEST_F(FrozenTriangle, LinkLatencyMustBeFiniteAndNonNegative) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1.0}) {
    EXPECT_THROW(net_.add_link(a_, b_, bad), std::invalid_argument) << bad;
  }
  const auto plane = net_.routing_plane();
  const auto leaf = net_.add_router("leaf");
  EXPECT_THROW(net_.add_link(leaf, a_, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  Host ha("ha"), hl("hl");
  net_.attach_host(ha, a_, 0.0);
  net_.attach_host(hl, leaf, 0.0);
  EXPECT_FALSE(net_.base_latency_ms(ha, hl).has_value());
  EXPECT_EQ(net_.routing_plane().get(), plane.get());  // nothing was added
  net_.add_link(leaf, a_, -0.0);  // negative zero is zero
  EXPECT_EQ(net_.base_latency_ms(ha, hl), 0.0);
}

}  // namespace
}  // namespace vpna::netsim
