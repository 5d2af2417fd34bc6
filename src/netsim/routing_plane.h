// Routing plane: all-pairs shortest-path data precomputed over a router
// graph and shared read-only between simulations that build the same graph
// (every campaign shard constructs an identical backbone + datacenter core,
// so one plane serves all of them). It is the network's only route source.
//
// The plane stores, for every source router, the parent array of its
// shortest-path tree — enough to reconstruct any path by a next-hop walk
// with no per-query Dijkstra and no allocation beyond the caller's reused
// buffer. Dijkstra runs on a min-heap ordered by (distance, router id), and
// strict-improvement relaxation keeps the first-found predecessor, so paths
// depend only on the adjacency and its link order.
//
// The plane keeps the adjacency it was built from. Sharing contract: a
// Network adopts a plane only when its own link lists equal that adjacency
// entry by entry (peer and latency bits), so a shared plane is always the
// plane the network would have built itself.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace vpna::netsim {

using RouterId = std::uint32_t;

inline constexpr RouterId kNoRouter = 0xffffffffu;

class RoutingPlane {
 public:
  // adjacency[r] lists (peer, one-way latency ms) in link insertion order —
  // the order matters for Dijkstra tie-breaking and must match the order
  // Network stores links in.
  using Links = std::vector<std::pair<RouterId, double>>;
  using Adjacency = std::vector<Links>;

  // Runs one Dijkstra per source over the adjacency and keeps both.
  [[nodiscard]] static std::shared_ptr<const RoutingPlane> build(
      Adjacency adjacency);

  [[nodiscard]] std::size_t router_count() const noexcept {
    return adjacency_.size();
  }
  // Router r's links as the plane was built over them.
  [[nodiscard]] const Links& links(RouterId r) const { return adjacency_[r]; }

  // Predecessor of v on the shortest path from src; kNoRouter when v == src
  // or v is unreachable from src.
  [[nodiscard]] RouterId parent(RouterId src, RouterId v) const noexcept {
    return parent_[static_cast<std::size_t>(src) * adjacency_.size() + v];
  }

  [[nodiscard]] bool reachable(RouterId src, RouterId dst) const noexcept {
    return src == dst || parent(src, dst) != kNoRouter;
  }

  // Appends the router sequence src..dst (inclusive) to `out`. Returns
  // false (appending nothing) when dst is unreachable from src.
  bool append_path(RouterId src, RouterId dst,
                   std::vector<RouterId>& out) const;

 private:
  RoutingPlane() = default;

  Adjacency adjacency_;
  std::vector<RouterId> parent_;  // n * n, row per source
};

}  // namespace vpna::netsim
