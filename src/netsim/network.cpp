#include "netsim/network.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace vpna::netsim {

std::string_view status_name(TransactStatus s) noexcept {
  switch (s) {
    case TransactStatus::kOk: return "ok";
    case TransactStatus::kNoRoute: return "no-route";
    case TransactStatus::kInterfaceDown: return "interface-down";
    case TransactStatus::kBlockedLocal: return "blocked-local";
    case TransactStatus::kBlockedRemote: return "blocked-remote";
    case TransactStatus::kNoSuchHost: return "no-such-host";
    case TransactStatus::kNoService: return "no-service";
    case TransactStatus::kNoReply: return "no-reply";
    case TransactStatus::kDropped: return "dropped";
    case TransactStatus::kTtlExpired: return "ttl-expired";
  }
  return "unknown";
}

namespace {

// Per-status metric names, built once: the hot path must not concatenate
// strings per packet (obs::count takes a string_view).
constexpr std::array<std::string_view, 10> kTransactMetricNames = {
    "net.transact.ok",           "net.transact.no-route",
    "net.transact.interface-down", "net.transact.blocked-local",
    "net.transact.blocked-remote", "net.transact.no-such-host",
    "net.transact.no-service",   "net.transact.no-reply",
    "net.transact.dropped",      "net.transact.ttl-expired",
};

}  // namespace

Network::Network(util::SimClock& clock, util::Rng rng, double jitter_stddev_ms)
    : clock_(clock),
      rng_(std::move(rng)),
      jitter_rng_(rng_.fork("jitter")),
      jitter_stddev_ms_(jitter_stddev_ms) {}

RouterId Network::add_router(std::string name, std::size_t expected_links) {
  routers_.push_back(Router{std::move(name), nullptr, {}});
  routers_.back().links.reserve(expected_links);
  // A router the plane does not cover joins as an unlinked leaf; existing
  // paths are unaffected, so both the plane and the path cache survive.
  if (plane_) leaf_gateways_.push_back(kNoRouter);
  return static_cast<RouterId>(routers_.size() - 1);
}

std::vector<std::pair<RouterId, RouterId>> Network::link_pairs() const {
  std::vector<std::pair<RouterId, RouterId>> out;
  for (RouterId a = 0; a < routers_.size(); ++a) {
    for (const auto& [b, latency] : routers_[a].links) {
      (void)latency;
      if (a < b) out.emplace_back(a, b);
    }
  }
  return out;
}

void Network::add_link(RouterId a, RouterId b, double latency_ms) {
  if (a >= routers_.size() || b >= routers_.size())
    throw std::out_of_range("add_link: unknown router");
  if (!std::isfinite(latency_ms) || latency_ms < 0)
    throw std::invalid_argument("add_link: latency must be finite and non-negative");
  routers_[a].links.emplace_back(b, latency_ms);
  routers_[b].links.emplace_back(a, latency_ms);
  // Even a link that only adds paths can make a farther anycast replica
  // reachable, and nearer.
  drop_deliveries();
  if (!plane_) return;
  const std::size_t covered = plane_->router_count();
  if ((a < covered) != (b < covered)) {
    RouterId& gateway = leaf_gateways_[std::max(a, b) - covered];
    if (gateway == kNoRouter) {
      // A leaf's first link only adds paths (path() memoizes no failure),
      // so the cache stays valid.
      gateway = std::min(a, b);
      return;
    }
  }
  // A link between covered routers, between two leaves, or a leaf's second
  // link: the plane no longer describes the graph. The next query builds a
  // new one.
  plane_ = nullptr;
  leaf_gateways_.clear();
  clear_paths();
}

std::shared_ptr<const RoutingPlane> Network::routing_plane() const {
  if (!plane_) {
    // No plane means no leaves: the plane covers every router.
    RoutingPlane::Adjacency adjacency;
    adjacency.reserve(routers_.size());
    for (const auto& router : routers_) adjacency.push_back(router.links);
    plane_ = RoutingPlane::build(std::move(adjacency));
  }
  return plane_;
}

void Network::adopt_routing_plane(std::shared_ptr<const RoutingPlane> plane) {
  if (plane == nullptr)
    throw std::logic_error("adopt_routing_plane: null plane");
  const auto same_link = [](const std::pair<RouterId, double>& x,
                            const std::pair<RouterId, double>& y) {
    return x.first == y.first && std::bit_cast<std::uint64_t>(x.second) ==
                                     std::bit_cast<std::uint64_t>(y.second);
  };
  bool same = plane->router_count() == routers_.size();
  for (RouterId r = 0; same && r < routers_.size(); ++r)
    same = std::ranges::equal(routers_[r].links, plane->links(r), same_link);
  if (!same)
    throw std::logic_error(
        "adopt_routing_plane: plane was not built over this topology");
  plane_ = std::move(plane);
  leaf_gateways_.clear();
  clear_paths();
}

const std::string& Network::router_name(RouterId id) const {
  return routers_.at(id).name;
}

IpAddr Network::router_addr(RouterId id) const {
  // Backbone router hop addresses live in 198.18.0.0/15.
  return IpAddr::v4(198, 18, static_cast<std::uint8_t>(id >> 8),
                    static_cast<std::uint8_t>(id & 0xff));
}

namespace {

std::uint64_t link_key(RouterId a, RouterId b) noexcept {
  const auto lo = std::min(a, b);
  const auto hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

void Network::set_link_capacity(RouterId a, RouterId b,
                                const LinkCapacity& capacity) {
  if (a >= routers_.size() || b >= routers_.size())
    throw std::out_of_range("set_link_capacity: unknown router");
  if (!capacity.enabled())
    throw std::invalid_argument("set_link_capacity: zero bandwidth");
  link_capacities_[link_key(a, b)] = capacity;
}

const LinkCapacity* Network::link_capacity(RouterId u,
                                           RouterId v) const noexcept {
  if (link_capacities_.empty()) return nullptr;
  const auto it = link_capacities_.find(link_key(u, v));
  return it == link_capacities_.end() ? nullptr : &it->second;
}

std::optional<Network::ResolvedPath> Network::resolve_path(const Host& from,
                                                           const IpAddr& dst) {
  const auto* from_att = attachment_of(from);
  if (from_att == nullptr) return std::nullopt;
  const auto dst_it = addr_to_attachment_.find(dst);
  if (dst_it == addr_to_attachment_.end()) return std::nullopt;
  const Attachment& dst_att =
      attachments_[nearest_replica(from_att->router, dst_it->second)];
  const auto* p = path(from_att->router, dst_att.router);
  if (p == nullptr) return std::nullopt;
  ResolvedPath out;
  out.routers = p->routers;
  out.path_latency_ms = p->latency_ms;
  out.src_access_ms = from_att->access_latency_ms;
  out.dst_access_ms = dst_att.access_latency_ms;
  out.dst_host = dst_att.host;
  return out;
}

void Network::set_middlebox(RouterId id, std::shared_ptr<Middlebox> mb) {
  routers_.at(id).middlebox = std::move(mb);
  drop_deliveries();
}

void Network::attach_host(Host& host, RouterId router, double access_latency_ms) {
  if (router >= routers_.size())
    throw std::out_of_range("attach_host: unknown router");
  if (host.network_ != nullptr)
    throw std::logic_error("attach_host: host already attached: " + host.name());
  const std::size_t slot = attachments_.size();
  attachments_.push_back(Attachment{&host, router, access_latency_ms, {}});
  host.network_ = this;
  host.attachment_slot_ = slot;
  index_attachment(slot);
  drop_deliveries();
  debug_check_addresses(slot, {});
}

void Network::detach_host(Host& host) {
  if (attachment_of(host) == nullptr) return;
  const std::size_t slot = host.attachment_slot_;
  const auto before = unindex_attachment(slot);
  attachments_[slot].host = nullptr;  // tombstone; slot indices stay stable
  host.network_ = nullptr;
  drop_deliveries();
  debug_check_addresses(slot, before);
}

void Network::reserve_hosts(std::size_t host_count) {
  const std::size_t total = attachments_.size() + host_count;
  attachments_.reserve(total);
  // Most hosts index two global addresses (v4 + v6). Only ever grow the
  // index: reserve() rehashes to the bucket count it computes, a smaller
  // one included.
  const std::size_t addrs = addr_to_attachment_.size() + 2 * host_count;
  if (static_cast<double>(addrs) >
      addr_to_attachment_.max_load_factor() *
          static_cast<double>(addr_to_attachment_.bucket_count()))
    addr_to_attachment_.reserve(addrs);
}

void Network::refresh_host(Host& host) {
  if (attachment_of(host) == nullptr) return;
  const auto before = unindex_attachment(host.attachment_slot_);
  index_attachment(host.attachment_slot_);
  drop_deliveries();
  debug_check_addresses(host.attachment_slot_, before);
}

void Network::index_attachment(std::size_t slot) {
  auto& att = attachments_[slot];
  std::size_t n_addrs = 0;
  for (const auto& iface : att.host->interfaces())
    if (iface.name != "lo")
      n_addrs += iface.addr4.has_value() + iface.addr6.has_value();
  att.indexed_addrs.reserve(n_addrs);
  const auto add = [&](const IpAddr& addr) {
    att.indexed_addrs.push_back(addr);
    const auto [it, inserted] = addr_to_attachment_.try_emplace(addr);
    AddrSlots& slots = it->second;
    if (inserted) {
      slots.first = slot;
      return;
    }
    // Keep slots ascending (= attach order), matching a full rebuild, so
    // anycast tie-breaking is independent of refresh history.
    auto& more = slots.replicas;
    if (slot < slots.first) {
      more.insert(more.begin(), slots.first);
      slots.first = slot;
    } else {
      more.insert(std::lower_bound(more.begin(), more.end(), slot), slot);
    }
  };
  for (const auto& iface : att.host->interfaces()) {
    if (iface.name == "lo") continue;
    if (iface.addr4) add(*iface.addr4);
    if (iface.addr6) add(*iface.addr6);
  }
}

std::vector<IpAddr> Network::unindex_attachment(std::size_t slot) {
  auto& att = attachments_[slot];
  for (const auto& addr : att.indexed_addrs) {
    const auto it = addr_to_attachment_.find(addr);
    if (it == addr_to_attachment_.end()) continue;
    AddrSlots& slots = it->second;
    std::erase(slots.replicas, slot);
    if (slots.first != slot) continue;
    if (slots.replicas.empty()) {
      addr_to_attachment_.erase(it);
    } else {
      slots.first = slots.replicas.front();
      slots.replicas.erase(slots.replicas.begin());
    }
  }
  return std::exchange(att.indexed_addrs, {});
}

Network::~Network() { debug_check_address_index(); }

void Network::debug_check_addresses(std::size_t slot,
                                    std::span<const IpAddr> before) const {
#ifndef NDEBUG
  const auto& att = attachments_[slot];
  assert(att.host == nullptr ||
         (att.host->network_ == this && att.host->attachment_slot_ == slot));
  // How often slot i's snapshot holds `addr` (a host may carry one address
  // on two interfaces; the index then lists its slot twice).
  const auto held = [this](std::size_t i, const IpAddr& addr) {
    const auto& a = attachments_[i];
    if (a.host == nullptr) return std::ptrdiff_t{0};
    return std::count(a.indexed_addrs.begin(), a.indexed_addrs.end(), addr);
  };
  // Walks the entry in place (`first`, then `replicas`): the check itself
  // allocates nothing, so Debug allocation counts match optimized builds.
  const auto check = [&](const IpAddr& addr) {
    const auto it = addr_to_attachment_.find(addr);
    const AddrSlots* listed =
        it == addr_to_attachment_.end() ? nullptr : &it->second;
    // How often the entry lists slot i.
    const auto listed_count = [listed](std::size_t i) {
      if (listed == nullptr) return std::ptrdiff_t{0};
      return (listed->first == i ? 1 : 0) +
             std::count(listed->replicas.begin(), listed->replicas.end(), i);
    };
    if (listed != nullptr) {
      const auto& replicas = listed->replicas;
      assert(std::is_sorted(replicas.begin(), replicas.end()) &&
             (replicas.empty() || listed->first <= replicas.front()));
      assert(listed_count(listed->first) == held(listed->first, addr));
      for (const std::size_t i : replicas)
        assert(listed_count(i) == held(i, addr));
    }
    assert(listed_count(slot) == held(slot, addr));
    (void)held;
    (void)listed_count;
  };
  for (const auto& addr : before) check(addr);
  for (const auto& addr : att.indexed_addrs) check(addr);
#else
  (void)slot;
  (void)before;
#endif
}

void Network::debug_check_address_index() const {
#ifndef NDEBUG
  std::unordered_map<IpAddr, std::vector<std::size_t>> expected;
  for (std::size_t i = 0; i < attachments_.size(); ++i) {
    const auto& att = attachments_[i];
    if (att.host == nullptr) continue;
    for (const auto& addr : att.indexed_addrs) expected[addr].push_back(i);
  }
  assert(expected.size() == addr_to_attachment_.size());
  for (const auto& [addr, slots] : expected) {
    const auto it = addr_to_attachment_.find(addr);
    assert(it != addr_to_attachment_.end() &&
           it->second.first == slots.front() &&
           std::equal(it->second.replicas.begin(), it->second.replicas.end(),
                      slots.begin() + 1, slots.end()));
    (void)slots;
    (void)it;
  }
#endif
}

Host* Network::host_by_addr(const IpAddr& addr) const {
  const auto it = addr_to_attachment_.find(addr);
  if (it == addr_to_attachment_.end()) return nullptr;
  return attachments_[it->second.first].host;
}

const Network::Attachment* Network::attachment_of(const Host& host) const {
  if (host.network_ != this) return nullptr;
  return &attachments_[host.attachment_slot_];
}

std::size_t Network::nearest_replica(RouterId from,
                                     const AddrSlots& slots) const {
  if (slots.replicas.empty()) return slots.first;
  std::size_t best_idx = slots.first;
  double best = kNoPathMs;
  const auto consider = [&](std::size_t idx) {
    const auto* pi = path(from, attachments_[idx].router);
    if (pi != nullptr && pi->latency_ms < best) {
      best = pi->latency_ms;
      best_idx = idx;
    }
  };
  consider(slots.first);
  for (const std::size_t idx : slots.replicas) consider(idx);
  return best_idx;
}

double Network::link_latency(RouterId u, RouterId v) const {
  double best = kNoPathMs;
  for (const auto& [peer, latency] : routers_[u].links)
    if (peer == v && latency < best) best = latency;
  return best;
}

const Network::PathInfo* Network::path(RouterId a, RouterId b) const {
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  if (const auto it = path_cache_.find(key); it != path_cache_.end())
    return &it->second;

  (void)routing_plane();  // builds plane_ when none is held
  const RoutingPlane& plane = *plane_;
  const std::size_t covered = plane.router_count();
  // Map leaves to their covered gateway.
  const auto gateway = [&](RouterId r) {
    return r < covered ? r : leaf_gateways_[r - covered];
  };
  const RouterId core_a = gateway(a);
  const RouterId core_b = gateway(b);
  PathInfo info;
  if (a == b) {
    info.routers.push_back(a);
  } else {
    // Decided before anything is built: an unreachable pair allocates
    // nothing.
    if (core_a == kNoRouter || core_b == kNoRouter ||
        !plane.reachable(core_a, core_b))
      return nullptr;
    if (a != core_a) info.routers.push_back(a);
    if (core_a == core_b) {
      info.routers.push_back(core_a);
    } else {
      plane.append_path(core_a, core_b, info.routers);
    }
    if (b != core_b) info.routers.push_back(b);
  }
  // Re-sum latency left to right along the path — the same order Dijkstra
  // accumulated it — so a leaf's latency matches a plane built over it.
  for (std::size_t i = 0; i + 1 < info.routers.size(); ++i)
    info.latency_ms += link_latency(info.routers[i], info.routers[i + 1]);
  // Cap the memo table; clearing is deterministic-safe because every entry
  // is recomputable from the (immutable while cached) plane and leaves.
  if (path_cache_.size() >= kPathCacheMaxEntries) clear_paths();
  const auto [it, inserted] = path_cache_.emplace(key, std::move(info));
  (void)inserted;
  return &it->second;
}

void Network::clear_paths() const noexcept {
  path_cache_.clear();
  drop_deliveries();
}

void Network::drop_deliveries() const noexcept {
  // clear() zeroes every bucket even when empty, and attach, detach and
  // refresh call this once per host.
  if (!deliveries_.empty()) deliveries_.clear();
}

const Network::Delivery* Network::delivery(RouterId from, const IpAddr& dst,
                                           TransactStatus& failure) {
  const DeliveryKey key{dst, from};
  if (const auto it = deliveries_.find(key); it != deliveries_.end()) {
    debug_check_delivery(key, it->second);
    return &it->second;
  }
  // With anycast replicas, the one with the lowest path latency from the
  // sender's router wins.
  const auto dst_it = addr_to_attachment_.find(dst);
  if (dst_it == addr_to_attachment_.end()) {
    failure = TransactStatus::kNoSuchHost;
    return nullptr;
  }
  Delivery d;
  d.slot = nearest_replica(from, dst_it->second);
  d.path = path(from, attachments_[d.slot].router);
  if (d.path == nullptr) {
    failure = TransactStatus::kNoRoute;
    return nullptr;
  }
  d.middlebox_free = std::none_of(
      d.path->routers.begin(), d.path->routers.end(),
      [this](RouterId r) { return routers_[r].middlebox != nullptr; });
  // Filling the entry may have dropped the path cache (at its cap), and the
  // memo with it, so the cap check comes after.
  if (deliveries_.size() >= kPathCacheMaxEntries) deliveries_.clear();
  return &deliveries_.emplace(key, d).first->second;
}

void Network::debug_check_delivery(const DeliveryKey& key,
                                   const Delivery& memo) const {
#ifndef NDEBUG
  const auto dst_it = addr_to_attachment_.find(key.dst);
  assert(dst_it != addr_to_attachment_.end());
  const std::size_t slot = nearest_replica(key.from, dst_it->second);
  assert(slot == memo.slot && attachments_[slot].host != nullptr);
  assert(path(key.from, attachments_[slot].router) == memo.path);
  assert(memo.middlebox_free ==
         std::none_of(memo.path->routers.begin(), memo.path->routers.end(),
                      [this](RouterId r) {
                        return routers_[r].middlebox != nullptr;
                      }));
  (void)dst_it;
  (void)slot;
#else
  (void)key;
  (void)memo;
#endif
}

double Network::jitter() {
  if (jitter_stddev_ms_ <= 0) return 0;
  // Box-Muller, both variates used.
  double z;
  if (has_spare_normal_) {
    z = spare_normal_;
  } else {
    double u1 = jitter_rng_.uniform();
    const double u2 = jitter_rng_.uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    z = r * std::cos(theta);
    spare_normal_ = r * std::sin(theta);
  }
  has_spare_normal_ = !has_spare_normal_;
  return std::max(0.0, jitter_stddev_ms_ * z);
}

std::optional<double> Network::base_latency_ms(const Host& a, const Host& b) const {
  const auto* aa = attachment_of(a);
  const auto* ab = attachment_of(b);
  if (aa == nullptr || ab == nullptr) return std::nullopt;
  const auto* p = path(aa->router, ab->router);
  if (p == nullptr) return std::nullopt;
  return aa->access_latency_ms + p->latency_ms + ab->access_latency_ms;
}

TransactResult Network::transact(Host& from, Packet packet,
                                 const TransactOptions& opts) {
  // Fast path: nothing observing this thread — skip straight to delivery.
  // This keeps the unobserved per-packet cost to two thread-local reads and
  // one relaxed load, and adds no allocations (the hot path's acceptance bar).
  if (!obs::observing()) return transact_impl(from, packet, opts);

  obs::Span span("net.transact", "netsim");
  if (span) {
    span.arg("host", from.name());
    span.arg("dst", packet.dst.str());
    span.arg("proto", proto_name(packet.proto));
    span.arg("dst_port", static_cast<std::int64_t>(packet.dst_port));
  }
  auto result = transact_impl(from, packet, opts);
  if (span) {
    span.arg("status", status_name(result.status));
    if (result.via_tunnel) span.arg("via_tunnel", "true");
  }
  obs::count(kTransactMetricNames[static_cast<std::size_t>(result.status)]);
  if (result.via_tunnel) obs::count("net.via_tunnel");
  obs::observe("net.rtt_ms", result.rtt_ms, obs::kRttBucketsMs);
  return result;
}

TransactResult Network::transact_impl(Host& from, Packet& packet,
                                      const TransactOptions& opts) {
  struct DepthGuard {
    int& d;
    explicit DepthGuard(int& depth) : d(depth) { ++d; }
    ~DepthGuard() { --d; }
  } guard(transact_depth_);
  if (transact_depth_ > 8) {
    // Forwarding loop (e.g. a tunnel routed through itself): dropped, and
    // charged the timeout like every other drop.
    TransactResult r;
    r.status = TransactStatus::kDropped;
    r.rtt_ms = opts.timeout_ms;
    clock_.advance_millis(opts.timeout_ms);
    return r;
  }

  const auto* from_att = attachment_of(from);
  if (from_att == nullptr) {
    TransactResult r;
    r.status = TransactStatus::kNoRoute;
    return r;
  }

  // 1. Route lookup on the sender; the egress interface by index.
  const Route* route = from.routes().lookup(packet.dst);
  if (route == nullptr) {
    TransactResult r;
    r.status = TransactStatus::kNoRoute;
    return r;
  }
  const Host::Egress egress = from.egress(*route);
  if (egress.interface == Host::kNoInterface ||
      !from.interfaces()[egress.interface].up) {
    TransactResult r;
    r.status = TransactStatus::kInterfaceDown;
    return r;
  }

  // 2. Fill in the source address if unspecified.
  if (packet.src.is_unspecified()) {
    const Interface& iface = from.interfaces()[egress.interface];
    const auto src = packet.dst.is_v4() ? iface.addr4 : iface.addr6;
    if (src) packet.src = *src;
  }

  // 3. Sender firewall.
  if (!from.firewall().allows(packet, Direction::kOut)) {
    TransactResult r;
    r.status = TransactStatus::kBlockedLocal;
    r.rtt_ms = opts.timeout_ms;
    clock_.advance_millis(opts.timeout_ms);
    return r;
  }

  // 4. Capture on the chosen egress interface. The id, not the interface,
  // outlives the nested tunnel transact below (which may remove it).
  std::optional<CaptureBuffer::InterfaceId> capture_id;
  if (from.capture().enabled()) {
    capture_id = from.capture_id(egress.interface);
    from.capture().record(clock_.now(), Direction::kOut, *capture_id, packet);
  }

  // 5. Tunnel encapsulation path.
  if (egress.tunnel) {
    // The capture above was the inner packet's last reader.
    auto outer = from.tunnel_hook()(std::move(packet));
    if (!outer) {
      TransactResult r;
      r.status = TransactStatus::kDropped;
      r.rtt_ms = opts.timeout_ms;
      r.via_tunnel = true;
      clock_.advance_millis(opts.timeout_ms);
      return r;
    }
    TransactResult outer_result = transact(from, std::move(*outer), opts);
    outer_result.via_tunnel = true;
    if (!outer_result.ok()) return outer_result;
    // Decapsulate the tunnel reply back into the inner reply.
    auto inner_reply = decode_inner(std::move(outer_result.reply));
    if (!inner_reply) {
      outer_result.status = TransactStatus::kDropped;
      outer_result.reply.clear();
      return outer_result;
    }
    if (capture_id)
      from.capture().record(clock_.now(), Direction::kIn, *capture_id,
                            *inner_reply);
    outer_result.reply = std::move(inner_reply->payload);
    outer_result.responder = inner_reply->src;
    // ICMP errors generated beyond the tunnel surface as the corresponding
    // transaction status (traceroute through a VPN depends on this).
    if (inner_reply->proto == Proto::kIcmpTimeExceeded)
      outer_result.status = TransactStatus::kTtlExpired;
    return outer_result;
  }

  // 6. Direct delivery.
  return deliver(from, *from_att, packet, opts);
}

TransactResult Network::deliver(Host& from, const Attachment& from_att,
                                Packet& packet,
                                const TransactOptions& opts) {
  TransactResult r;

  // One memo lookup names the destination attachment and the path.
  TransactStatus failure = TransactStatus::kNoRoute;
  const Delivery* d = delivery(from_att.router, packet.dst, failure);
  if (d == nullptr) {
    r.status = failure;
    r.rtt_ms = opts.timeout_ms;
    clock_.advance_millis(opts.timeout_ms);
    return r;
  }
  const Attachment& dst_att = attachments_[d->slot];
  Host* dst_host = dst_att.host;
  const PathInfo* p = d->path;

  // Fault plane: one pointer test when disabled. A drop verdict loses the
  // packet exactly like a middlebox drop (kDropped, timeout charged, no
  // jitter draw); extra latency widens the one-way path both directions.
  double fault_latency_ms = 0.0;
  if (fault_injector_ != nullptr) {
    const auto verdict = fault_injector_->on_deliver(
        packet, p->routers.data(), p->routers.size(), clock_.now().millis());
    if (verdict.drop) {
      r.status = TransactStatus::kDropped;
      r.rtt_ms = opts.timeout_ms;
      clock_.advance_millis(opts.timeout_ms);
      return r;
    }
    fault_latency_ms = verdict.extra_latency_ms;
  }

  obs::observe("net.path_hops", static_cast<double>(p->routers.size()),
               obs::kHopBuckets);

  // Walk the router path: TTL decrements per router, middleboxes inspect.
  const std::size_t hops = p->routers.size();
  double elapsed_one_way = from_att.access_latency_ms + fault_latency_ms;
  double per_hop =
      hops > 1 ? p->latency_ms / static_cast<double>(hops - 1) : 0.0;
  const bool trace_hops = obs::packet_hops_enabled();
  // On a middlebox-free path the packet outlives, with hop tracing off,
  // nothing can expire, inspect or trace it: only the per-hop additions
  // run, one by one in the walk's order (a precomputed sum would round
  // differently).
  const bool walk = !d->middlebox_free ||
                    packet.ttl <= static_cast<int>(hops) || trace_hops;
  for (std::size_t i = 0; i < hops; ++i) {
    if (i > 0) elapsed_one_way += per_hop;
    if (!walk) continue;
    if (trace_hops) {
      obs::Instant hop("net.hop", "netsim");
      hop.arg("router", routers_[p->routers[i]].name);
      hop.arg("ttl", static_cast<std::int64_t>(packet.ttl - 1));
    }
    packet.ttl -= 1;
    if (packet.ttl <= 0) {
      r.status = TransactStatus::kTtlExpired;
      r.responder = router_addr(p->routers[i]);
      r.rtt_ms = 2 * elapsed_one_way + jitter();
      clock_.advance_millis(r.rtt_ms);
      return r;
    }
    auto& router = routers_[p->routers[i]];
    if (router.middlebox) {
      auto verdict = router.middlebox->on_transit(packet);
      if (verdict.action != Middlebox::Action::kPass && obs::tracing()) {
        obs::Instant mb("net.middlebox", "netsim");
        mb.arg("router", router.name);
        mb.arg("action", verdict.action == Middlebox::Action::kDrop
                             ? "drop"
                             : "respond");
      }
      if (verdict.action == Middlebox::Action::kDrop) {
        obs::count("net.middlebox.drop");
        r.status = TransactStatus::kDropped;
        r.rtt_ms = opts.timeout_ms;
        clock_.advance_millis(opts.timeout_ms);
        return r;
      }
      if (verdict.action == Middlebox::Action::kRespond) {
        // The middlebox answers in place of the destination; to the sender
        // this is indistinguishable from a genuine reply.
        obs::count("net.middlebox.respond");
        r.status = TransactStatus::kOk;
        r.reply = std::move(verdict.response_payload);
        r.responder = packet.dst;
        r.rtt_ms = 2 * elapsed_one_way + jitter();
        clock_.advance_millis(r.rtt_ms);
        return r;
      }
    }
  }
  if (!walk) packet.ttl -= static_cast<int>(hops);
  elapsed_one_way += dst_att.access_latency_ms;

  // Destination firewall.
  if (!dst_host->firewall().allows(packet, Direction::kIn)) {
    r.status = TransactStatus::kBlockedRemote;
    r.rtt_ms = opts.timeout_ms;
    clock_.advance_millis(opts.timeout_ms);
    return r;
  }

  // Capture on the destination's receiving interface.
  std::optional<CaptureBuffer::InterfaceId> dst_capture;
  if (dst_host->capture().enabled()) {
    dst_capture = dst_host->capture_id_for(packet.dst);
    dst_host->capture().record(clock_.now(), Direction::kIn, *dst_capture,
                               packet);
  }

  const double round_trips = 1.0 + opts.extra_round_trips;

  // ICMP echo handled by the destination stack itself.
  if (packet.proto == Proto::kIcmpEcho) {
    r.status = TransactStatus::kOk;
    r.responder = packet.dst;
    r.rtt_ms = 2 * elapsed_one_way * round_trips + jitter();
    clock_.advance_millis(r.rtt_ms);
    return r;
  }

  // Look up the bound service.
  Service* service = dst_host->find_service(packet.proto, packet.dst_port);
  if (service == nullptr) {
    r.status = TransactStatus::kNoService;
    r.rtt_ms = 2 * elapsed_one_way + jitter();
    clock_.advance_millis(r.rtt_ms);
    return r;
  }

  // Charge the forward path time before the service runs, so any nested
  // transactions the service makes see a consistent clock.
  clock_.advance_millis(elapsed_one_way);
  const auto t_before = clock_.now();
  ServiceContext ctx{*this, *dst_host, packet};
  auto reply = service->handle(ctx);
  const double service_ms = (clock_.now() - t_before).millis();

  if (!reply) {
    r.status = TransactStatus::kNoReply;
    r.rtt_ms = opts.timeout_ms + elapsed_one_way + service_ms;
    clock_.advance_millis(opts.timeout_ms);
    return r;
  }

  // Reply packet back to the sender (captures recorded on both ends).
  Packet reply_packet;
  reply_packet.src = packet.dst;
  reply_packet.dst = packet.src;
  reply_packet.proto = packet.proto;
  reply_packet.src_port = packet.dst_port;
  reply_packet.dst_port = packet.src_port;
  reply_packet.payload = std::move(*reply);
  if (dst_capture)
    dst_host->capture().record(clock_.now(), Direction::kOut, *dst_capture,
                               reply_packet);

  // Return path + handshake surcharge, with the exchange's one jitter draw:
  // the reported RTT is the time the clock advanced.
  const double return_ms =
      elapsed_one_way + 2 * elapsed_one_way * static_cast<double>(opts.extra_round_trips);
  const double jitter_ms = jitter();
  clock_.advance_millis(return_ms + jitter_ms);

  if (from.capture().enabled())
    from.capture().record(clock_.now(), Direction::kIn,
                          from.capture_id_for(reply_packet.dst), reply_packet);

  r.status = TransactStatus::kOk;
  r.responder = reply_packet.src;
  r.reply = std::move(reply_packet.payload);
  r.rtt_ms = 2 * elapsed_one_way * round_trips + service_ms + jitter_ms;
  return r;
}

std::optional<double> Network::ping(Host& from, const IpAddr& dst) {
  Packet p;
  p.dst = dst;
  p.proto = Proto::kIcmpEcho;
  const auto res = transact(from, std::move(p));
  if (!res.ok()) return std::nullopt;
  return res.rtt_ms;
}

TracerouteResult Network::traceroute(Host& from, const IpAddr& dst, int max_ttl) {
  TracerouteResult out;
  for (int ttl = 1; ttl <= max_ttl; ++ttl) {
    Packet p;
    p.dst = dst;
    p.proto = Proto::kIcmpEcho;
    p.ttl = ttl;
    const auto res = transact(from, std::move(p));
    TracerouteHop hop;
    hop.ttl = ttl;
    hop.rtt_ms = res.rtt_ms;
    if (res.status == TransactStatus::kTtlExpired) {
      hop.router = res.responder;
      out.hops.push_back(hop);
      continue;
    }
    if (res.ok()) {
      hop.router = res.responder;
      out.hops.push_back(hop);
      out.reached = true;
      return out;
    }
    out.hops.push_back(hop);  // lost probe
    return out;               // hard failure; stop probing
  }
  return out;
}

}  // namespace vpna::netsim
