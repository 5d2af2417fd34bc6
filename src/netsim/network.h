// The simulated Internet fabric: a graph of routers joined by latency-
// weighted links, with hosts attached at routers. Packet transactions are
// synchronous (request in, optional reply out) with full latency accounting,
// TTL semantics for traceroute, per-router middleboxes for in-path
// interception (country-level censorship), and capture hooks on both ends.
//
// The topology itself (which routers exist, their link latencies derived
// from geography) is built by the `inet` module; netsim is geography-free.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/fault.h"
#include "netsim/host.h"
#include "netsim/link_queue.h"
#include "netsim/packet.h"
#include "netsim/routing_plane.h"
#include "util/clock.h"
#include "util/rng.h"

namespace vpna::netsim {

// In-path packet inspector/modifier attached to a router. `on_transit` may
// mutate the packet, let it pass, drop it, or answer it in place of the
// destination (how national block pages behave).
class Middlebox {
 public:
  virtual ~Middlebox() = default;

  enum class Action : std::uint8_t { kPass, kDrop, kRespond };
  struct Verdict {
    Action action = Action::kPass;
    std::string response_payload;  // used when action == kRespond
  };

  virtual Verdict on_transit(Packet& packet) = 0;
};

struct TransactOptions {
  // Virtual time charged when a transaction fails to complete (timeout).
  double timeout_ms = 1000.0;
  // Extra RTTs charged on top of the base exchange (e.g. TCP+TLS
  // handshakes are accounted by the protocol layers via this knob).
  int extra_round_trips = 0;
};

enum class TransactStatus : std::uint8_t {
  kOk,              // delivered, and a reply (possibly empty) came back
  kNoRoute,         // sender had no route to destination
  kInterfaceDown,   // route resolved to a downed interface
  kBlockedLocal,    // sender firewall dropped the packet
  kBlockedRemote,   // destination firewall dropped the packet
  kNoSuchHost,      // destination IP not registered anywhere
  kNoService,       // delivered but nothing bound on (proto, port)
  kNoReply,         // service chose not to respond
  kDropped,         // middlebox or tunnel dropped it
  kTtlExpired,      // TTL hit zero in transit (traceroute probe)
};

[[nodiscard]] std::string_view status_name(TransactStatus s) noexcept;

struct TransactResult {
  TransactStatus status = TransactStatus::kNoRoute;
  double rtt_ms = 0.0;      // total virtual time consumed
  std::string reply;        // reply payload when status == kOk
  IpAddr responder;         // who answered (router for kTtlExpired)
  bool via_tunnel = false;  // left the sender through a tun interface

  [[nodiscard]] bool ok() const noexcept { return status == TransactStatus::kOk; }
};

struct TracerouteHop {
  int ttl = 0;
  std::optional<IpAddr> router;  // nullopt = probe lost
  double rtt_ms = 0.0;
};

struct TracerouteResult {
  std::vector<TracerouteHop> hops;
  bool reached = false;
};

class Network {
 public:
  // `jitter_stddev_ms` adds gaussian noise to each measured RTT, modelling
  // queueing variance; 0 disables jitter.
  Network(util::SimClock& clock, util::Rng rng, double jitter_stddev_ms = 0.15);
  // Debug builds check the whole address index here (see
  // debug_check_address_index).
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology -------------------------------------------------------------
  // Adds a router; its hop address is derived from the id (198.18.x.y).
  // `expected_links` pre-sizes its link list when the caller knows the
  // router's degree.
  RouterId add_router(std::string name, std::size_t expected_links = 0);
  // Undirected link with one-way latency in milliseconds. Throws
  // std::invalid_argument unless the latency is finite and non-negative.
  void add_link(RouterId a, RouterId b, double latency_ms);
  [[nodiscard]] std::size_t router_count() const noexcept {
    return routers_.size();
  }
  [[nodiscard]] const std::string& router_name(RouterId id) const;
  [[nodiscard]] IpAddr router_addr(RouterId id) const;

  // nullptr removes the router's middlebox.
  void set_middlebox(RouterId id, std::shared_ptr<Middlebox> mb);

  // --- link capacity ---------------------------------------------------------
  // Assigns a bandwidth/queue configuration to the undirected link (a, b);
  // both directions share the configuration but are transmitted (and
  // queued) independently by the traffic plane. Capacities are *not* part
  // of the routing topology: they never touch the routing plane or the
  // transact path, so a capacity-free run — and every transact-only
  // run — is byte-identical to a build without this layer.
  void set_link_capacity(RouterId a, RouterId b, const LinkCapacity& capacity);
  // The capacity of link (u, v) in either orientation; nullptr when the
  // link is uncapacitated (pure-delay, the pre-capacity behaviour).
  [[nodiscard]] const LinkCapacity* link_capacity(RouterId u,
                                                  RouterId v) const noexcept;
  [[nodiscard]] bool any_link_capacity() const noexcept {
    return !link_capacities_.empty();
  }

  // Smallest latency among (possibly parallel) links u->v, in ms;
  // kNoPathMs (+infinity) when no such link exists. Public for the traffic
  // plane, which charges per-hop propagation itself instead of using a path
  // total.
  [[nodiscard]] double min_link_latency(RouterId u, RouterId v) const noexcept {
    return link_latency(u, v);
  }

  // A resolved unicast path for the traffic plane: the router walk from
  // the sender's router to the (anycast-best) destination's router, the
  // access latencies at both ends, and the destination host. Uses the same
  // path machinery as transact, so traffic-plane packets cross exactly the
  // links a transact exchange would.
  struct ResolvedPath {
    std::vector<RouterId> routers;  // src router .. dst router, inclusive
    double path_latency_ms = 0.0;   // one-way, router path only
    double src_access_ms = 0.0;
    double dst_access_ms = 0.0;
    Host* dst_host = nullptr;
  };
  [[nodiscard]] std::optional<ResolvedPath> resolve_path(const Host& from,
                                                         const IpAddr& dst);

  // --- fault injection -------------------------------------------------------
  // Installs (nullptr clears) the fault injector consulted on every direct
  // delivery. With none installed — the default, and FaultProfile::off —
  // the per-packet cost is a single pointer test.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) noexcept {
    fault_injector_ = std::move(injector);
  }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept {
    return fault_injector_.get();
  }
  // Snapshot of the undirected links (each pair once, a < b), in
  // add_router/add_link order. Fault planning samples real links from this
  // instead of guessing router-id pairs.
  [[nodiscard]] std::vector<std::pair<RouterId, RouterId>> link_pairs() const;

  // --- routing plane ---------------------------------------------------------
  // Every path comes from a routing plane over the routers it covers. The
  // first path query builds one over all current routers when none is held.
  // Routers added later are leaves: a leaf's first link, to a covered
  // router, extends the plane (how provider facilities attach). A link
  // between covered routers, between two leaves, or a leaf's second link
  // drops the plane, and the next query builds a new one.
  //
  // The plane in use, built here when none is held. The result is
  // immutable and safe to share across threads and across networks with
  // the same links.
  [[nodiscard]] std::shared_ptr<const RoutingPlane> routing_plane() const;
  // Installs a plane built elsewhere (typically shared across campaign
  // shards). Throws std::logic_error unless the plane covers exactly this
  // network's routers and was built over exactly its link lists (peers and
  // latency bits, in order).
  void adopt_routing_plane(std::shared_ptr<const RoutingPlane> plane);

  // --- host attachment --------------------------------------------------------
  // Registers a host at a router; all the host's global addresses become
  // routable. `access_latency_ms` is the one-way host<->router latency.
  // Multiple hosts may share an address (anycast replicas, e.g. public DNS
  // and root-server instances); delivery selects the replica closest to the
  // sender, as BGP anycast does. A host joins one network at a time:
  // attaching an attached host throws std::logic_error.
  void attach_host(Host& host, RouterId router, double access_latency_ms = 0.3);
  void detach_host(Host& host);
  // Capacity hint for a build that knows its host count up front (shard
  // construction does): pre-sizes the attachment table and pre-buckets the
  // address index so a bulk attach triggers no rehashing.
  void reserve_hosts(std::size_t host_count);
  [[nodiscard]] Host* host_by_addr(const IpAddr& addr) const;
  // Re-index a host's addresses after interfaces changed.
  void refresh_host(Host& host);

  // --- data path ---------------------------------------------------------------
  // Sends `packet` from `from`, waits for the reply, advances the clock by
  // the consumed time, and records captures on both hosts. Synchronous and
  // re-entrant: services may call transact() themselves (tunnel endpoints,
  // proxies do). When an obs recorder/registry is bound to the calling
  // thread, each transaction opens a sim-time span and feeds the net.*
  // metrics; with nothing bound the instrumentation is a thread-local read.
  TransactResult transact(Host& from, Packet packet,
                          const TransactOptions& opts = {});

  // ICMP echo convenience. Returns RTT in ms, or nullopt if unreachable.
  std::optional<double> ping(Host& from, const IpAddr& dst);

  // TTL-stepped route discovery toward dst.
  TracerouteResult traceroute(Host& from, const IpAddr& dst, int max_ttl = 30);

  // One-way propagation latency between two attached hosts, without jitter
  // (used by inet to sanity-check the topology and by tests).
  [[nodiscard]] std::optional<double> base_latency_ms(const Host& a,
                                                      const Host& b) const;

  [[nodiscard]] util::SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

 private:
  struct Router {
    std::string name;
    std::shared_ptr<Middlebox> middlebox;
    std::vector<std::pair<RouterId, double>> links;
  };
  struct Attachment {
    Host* host = nullptr;  // nullptr = detached slot (kept so indices stay stable)
    RouterId router = 0;
    double access_latency_ms = 0.3;
    // The host addresses currently present in addr_to_attachment_, so
    // detach/refresh can unindex incrementally.
    std::vector<IpAddr> indexed_addrs;
  };
  // The attachment slots that hold one address, ascending (attach order).
  // The first sits inline; only anycast replicas allocate.
  struct AddrSlots {
    std::size_t first = 0;
    std::vector<std::size_t> replicas;  // slots after `first`, ascending
  };
  struct PathInfo {
    std::vector<RouterId> routers;  // from src router to dst router inclusive
    double latency_ms = 0.0;        // one-way, router path only
  };
  // Where a delivery from one router to one address goes: the attachment
  // slot it reaches (the anycast winner) and the path there. Valid until the
  // path cache, the attachments or a middlebox change.
  struct Delivery {
    std::size_t slot = 0;
    const PathInfo* path = nullptr;  // a path_cache_ entry
    bool middlebox_free = false;     // no router on the path has one
  };
  struct DeliveryKey {
    IpAddr dst;
    RouterId from = 0;
    friend bool operator==(const DeliveryKey&, const DeliveryKey&) = default;
  };
  struct DeliveryKeyHash {
    std::size_t operator()(const DeliveryKey& k) const noexcept {
      return std::hash<IpAddr>{}(k.dst) ^ (k.from * 0x9e3779b97f4a7c15ULL);
    }
  };

  [[nodiscard]] const Attachment* attachment_of(const Host& host) const;
  // The slot a packet sent from `from` reaches: the only holder of the
  // address, or the anycast replica with the lowest path latency (ties go
  // to attach order).
  [[nodiscard]] std::size_t nearest_replica(RouterId from,
                                            const AddrSlots& slots) const;
  // Incremental index maintenance for one attachment slot. Unindexing
  // returns the addresses it removed.
  void index_attachment(std::size_t slot);
  std::vector<IpAddr> unindex_attachment(std::size_t slot);
  // Debug-build invariants (no-ops under NDEBUG). The expectation comes from
  // each attached slot's indexed_addrs snapshot, which is what the index
  // holds: an attached host's interfaces may legally differ from it until
  // refresh_host. After attach, detach or refresh of `slot`, only the
  // addresses it touched (`before` and its current snapshot) are checked:
  // each one's entry lists, ascending, every attached slot as often as its
  // snapshot holds the address, `slot` included.
  void debug_check_addresses(std::size_t slot,
                             std::span<const IpAddr> before) const;
  // The whole index equals a rebuild from every snapshot. Reads no host, so
  // it can run at teardown after the hosts are gone.
  void debug_check_address_index() const;
  // Path with memoization keyed on (src, dst), reconstructed from the
  // routing plane (a next-hop walk plus leaf extensions). nullptr when
  // unreachable.
  [[nodiscard]] const PathInfo* path(RouterId a, RouterId b) const;
  // Drops the path cache and the delivery memo that points into it.
  void clear_paths() const noexcept;
  void drop_deliveries() const noexcept;
  // The delivery from router `from` to `dst`, memoized on first use. On a
  // failure returns nullptr and sets `failure` (kNoSuchHost, kNoRoute);
  // failures are not memoized.
  const Delivery* delivery(RouterId from, const IpAddr& dst,
                           TransactStatus& failure);
  // Debug builds (no-op under NDEBUG): a memo hit equals a fresh
  // resolution. Allocates nothing: the fresh answer reads the path cache,
  // which the memoized entry's resolution already filled.
  void debug_check_delivery(const DeliveryKey& key, const Delivery& memo) const;
  // Smallest latency among (possibly parallel) links u->v; used to re-sum
  // a reconstructed path's latency in the same order Dijkstra accumulated
  // it, so a leaf's path latency equals a plane built over the leaf.
  [[nodiscard]] double link_latency(RouterId u, RouterId v) const;
  // One jitter draw (>= 0) from the jitter stream; 0 when disabled.
  double jitter();

  // transact() minus the tracing/metrics wrapper (the recursive core).
  TransactResult transact_impl(Host& from, Packet& packet,
                               const TransactOptions& opts);

  // The directly-routed delivery step (no tunnel handling): walks the router
  // path, applies middleboxes and TTL, delivers to the destination service
  // and routes the reply back. Returns consumed one-way-or-round-trip time
  // in the result.
  TransactResult deliver(Host& from, const Attachment& from_att,
                         Packet& packet,
                         const TransactOptions& opts);

  util::SimClock& clock_;
  util::Rng rng_;
  // Jitter draws from its own stream, so how many exchanges draw jitter
  // never shifts what other rng() consumers (DNS query ids) see. Box-Muller
  // yields normals in pairs; the second waits in spare_normal_.
  util::Rng jitter_rng_;
  double jitter_stddev_ms_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
  std::vector<Router> routers_;
  // Append-only slots (detach tombstones instead of erasing) so the address
  // index and each attached Host can reference attachments by stable index.
  std::vector<Attachment> attachments_;
  // Address -> attachment slots; more than one slot means anycast.
  std::unordered_map<IpAddr, AddrSlots> addr_to_attachment_;
  // Memoized paths, capped: at O(10³)-provider scale the (src, dst) router
  // pair space would otherwise grow the cache without bound. Hitting the cap
  // clears the cache — paths are pure functions of the plane and its
  // leaves, so recomputation is deterministic and results are unaffected.
  static constexpr std::size_t kPathCacheMaxEntries = 1 << 16;
  mutable std::unordered_map<std::uint64_t, PathInfo> path_cache_;
  // Filled only by deliveries, and capped like the path cache. Dropped with
  // the path cache and on attach, detach, refresh_host, add_link and
  // set_middlebox.
  mutable std::unordered_map<DeliveryKey, Delivery, DeliveryKeyHash>
      deliveries_;
  // Routing-plane state (see routing_plane()).
  mutable std::shared_ptr<const RoutingPlane> plane_;
  // Each leaf's covered neighbour; kNoRouter = no link yet (unreachable).
  // Index: router id - plane_->router_count(). Empty while no plane is held.
  std::vector<RouterId> leaf_gateways_;
  // Undirected link (a < b, packed) -> capacity. Consulted only by the
  // traffic plane; empty (the default) means every link is pure-delay.
  std::unordered_map<std::uint64_t, LinkCapacity> link_capacities_;
  std::shared_ptr<FaultInjector> fault_injector_;
  int transact_depth_ = 0;  // recursion guard
};

}  // namespace vpna::netsim
