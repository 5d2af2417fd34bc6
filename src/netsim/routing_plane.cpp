#include "netsim/routing_plane.h"

#include <algorithm>
#include <queue>

namespace vpna::netsim {

std::shared_ptr<const RoutingPlane> RoutingPlane::build(Adjacency adjacency) {
  auto plane = std::shared_ptr<RoutingPlane>(new RoutingPlane());
  const std::size_t n = adjacency.size();
  plane->parent_.assign(n * n, kNoRouter);

  // One Dijkstra per source; a router left at kNoPathMs is unreachable.
  std::vector<double> dist;
  using QE = std::pair<double, RouterId>;
  for (RouterId src = 0; src < n; ++src) {
    dist.assign(n, kNoPathMs);
    RouterId* parent_row = plane->parent_.data() + static_cast<std::size_t>(src) * n;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> q;
    dist[src] = 0;
    q.emplace(0.0, src);
    while (!q.empty()) {
      const auto [d, u] = q.top();
      q.pop();
      if (d > dist[u]) continue;
      for (const auto& [v, w] : adjacency[u]) {
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          parent_row[v] = u;
          q.emplace(dist[v], v);
        }
      }
    }
  }
  plane->adjacency_ = std::move(adjacency);
  return plane;
}

bool RoutingPlane::append_path(RouterId src, RouterId dst,
                               std::vector<RouterId>& out) const {
  if (!reachable(src, dst)) return false;
  const std::size_t mark = out.size();
  for (RouterId cur = dst;;) {
    out.push_back(cur);
    if (cur == src) break;
    cur = parent(src, cur);
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(mark), out.end());
  return true;
}

}  // namespace vpna::netsim
