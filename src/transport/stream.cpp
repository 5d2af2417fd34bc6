#include "transport/stream.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "netsim/event_loop.h"
#include "netsim/link_queue.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vpna::transport {

namespace {

using netsim::EventLoop;
using netsim::LinkCapacity;
using netsim::LinkQueue;
using netsim::RouterId;
using util::SimTime;

// Event tags: (index << 3) | kind. Packet events carry a pool index, flow
// events a flow index.
enum EventKind : std::uint64_t {
  kArrive = 0,      // packet reaches the entry of its next link
  kTxComplete = 1,  // packet finished serializing onto a link
  kDeliver = 2,     // packet reaches the destination host
  kAck = 3,         // ack reaches the sender
  kMediaTick = 4,   // paced source produced one packet of media
  kRto = 5,         // stalled-window rescue timer
  kSample = 6,      // timeline sampling
};
// Congestion controller constants (windows in packets of packet_bytes).
constexpr double kInitCwndPackets = 2;
constexpr double kMinCwndPackets = 2;
// Hard window ceiling: bounds event volume even on a lossless,
// uncapacitated path where nothing ever pushes back on the window.
constexpr double kMaxCwndPackets = 1024;
constexpr double kEcnBeta = 0.8;   // multiplicative decrease on an ECN echo
constexpr double kLossBeta = 0.5;  // multiplicative decrease on detected loss

constexpr std::uint64_t tag_of(std::uint64_t index, EventKind kind) noexcept {
  return (index << 3) | kind;
}

// Rounds a microsecond quantity to the SimTime grid deterministically.
SimTime us_time(double us) noexcept {
  return SimTime(static_cast<std::int64_t>(std::llround(us)));
}
SimTime ms_time(double ms) noexcept { return us_time(ms * 1e3); }

// One direction of a capacitated link: an exclusive transmitter fed by a
// finite FIFO. Directions are independent (full duplex).
struct LinkState {
  LinkQueue queue;
  const LinkCapacity* capacity = nullptr;
  double prop_ms = 0.0;
  bool busy = false;

  explicit LinkState(const LinkCapacity& cap, double prop)
      : queue(cap), capacity(&cap), prop_ms(prop) {}
};

struct FlowState {
  const StreamSpec* spec = nullptr;
  std::size_t index = 0;  // position in the spec vector (and event tags)
  StreamStats stats;
  netsim::Network::ResolvedPath path;
  netsim::Packet probe;     // fault-injector template (one per flow)
  double reverse_delay_ms = 0.0;
  SimTime start;
  SimTime inject_end;

  // SCReAM-lite controller state (bytes).
  double cwnd = 0.0;
  double ssthresh = 1e18;
  double bytes_in_flight = 0.0;
  double srtt_ms = 0.0;
  double last_decrease_ms = -1e18;
  double last_queue_delay_ms = 0.0;
  double queue_delay_sum_ms = 0.0;
  std::uint64_t rtt_samples = 0;
  std::uint32_t next_seq = 0;
  std::uint32_t next_ack_expected = 0;
  SimTime last_progress;
  bool rto_armed = false;
  double media_credit_bytes = 0.0;

  [[nodiscard]] double mss() const noexcept {
    return static_cast<double>(spec->config.packet_bytes);
  }
  [[nodiscard]] bool media_available() const noexcept {
    return spec->config.source_bitrate_bps <= 0.0 ||
           media_credit_bytes >= mss();
  }
  [[nodiscard]] double rto_interval_ms() const noexcept {
    return std::max(4.0 * srtt_ms, 200.0);
  }
};

struct PacketInFlight {
  FlowState* flow = nullptr;
  LinkState* link = nullptr;  // set while serializing on a transmitter
  SimTime sent_at;
  std::uint32_t seq = 0;
  std::uint32_t bytes = 0;
  std::uint32_t hop = 0;  // next link to cross: routers[hop] -> routers[hop+1]
  bool ecn = false;
};

// The whole simulation: owns the loop, the per-directed-link transmitters
// and the packet pool, and dispatches every event kind. Single-threaded
// and RNG-free, so the run is a pure function of its inputs.
class Plane final : public netsim::EventActor {
 public:
  Plane(netsim::Network& net, const std::vector<StreamSpec>& specs)
      : net_(net), loop_(net.clock().now()) {
    flows_.reserve(specs.size());
    for (const auto& spec : specs) {
      auto flow = std::make_unique<FlowState>();
      flow->spec = &spec;
      flow->index = flows_.size();
      auto resolved =
          spec.src != nullptr
              ? net_.resolve_path(*spec.src, spec.dst)
              : std::nullopt;
      if (resolved) {
        flow->stats.ran = true;
        flow->path = std::move(*resolved);
        const double one_way = flow->path.src_access_ms +
                               flow->path.path_latency_ms +
                               flow->path.dst_access_ms;
        flow->reverse_delay_ms = one_way;
        flow->stats.base_rtt_ms = 2.0 * one_way;
        flow->stats.duration_s = spec.config.duration_s;
        flow->probe.dst = spec.dst;
        flow->probe.proto = netsim::Proto::kUdp;
        flow->probe.dst_port = spec.dst_port;
        flow->probe.src_port = spec.src->next_ephemeral_port();
        if (const auto src = spec.src->primary_addr(spec.dst.family()))
          flow->probe.src = *src;
        flow->cwnd = kInitCwndPackets * flow->mss();
        flow->start = loop_.now();
        flow->inject_end =
            loop_.now() + SimTime::from_seconds(spec.config.duration_s);
        flow->last_progress = loop_.now();
      }
      flows_.push_back(std::move(flow));
    }
  }

  std::vector<StreamStats> run() {
    // Kick every resolvable flow off at the start instant, in spec order
    // (the loop's tie-breaking makes that order part of the contract).
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      auto& flow = *flows_[i];
      if (!flow.stats.ran) continue;
      const auto& cfg = flow.spec->config;
      if (cfg.source_bitrate_bps > 0.0)
        loop_.schedule_at(loop_.now(), *this, tag_of(i, kMediaTick));
      if (cfg.sample_interval_ms > 0.0)
        loop_.schedule_after(ms_time(cfg.sample_interval_ms), *this,
                             tag_of(i, kSample));
      try_send(flow);
    }
    loop_.run();

    std::vector<StreamStats> out;
    out.reserve(flows_.size());
    for (auto& flow : flows_) {
      auto& s = flow->stats;
      if (flow->rtt_samples > 0)
        s.queue_delay_mean_ms = flow->queue_delay_sum_ms /
                                static_cast<double>(flow->rtt_samples);
      s.cwnd_final_bytes = flow->cwnd;
      out.push_back(std::move(s));
    }
    obs::count("traffic.events", loop_.dispatched());
    return out;
  }

  [[nodiscard]] const EventLoop& loop() const noexcept { return loop_; }

  void on_event(EventLoop&, std::uint64_t tag) override {
    const std::uint64_t index = tag >> 3;
    switch (static_cast<EventKind>(tag & 7)) {
      case kArrive: arrive(pool_[index], index); break;
      case kTxComplete: tx_complete(pool_[index], index); break;
      case kDeliver: deliver(pool_[index], index); break;
      case kAck: ack(pool_[index], index); break;
      case kMediaTick: media_tick(*flows_[index], index); break;
      case kRto: rto_fire(*flows_[index], index); break;
      case kSample: sample(*flows_[index], index); break;
    }
  }

 private:
  // --- sender side -----------------------------------------------------------

  void try_send(FlowState& flow) {
    while (loop_.now() < flow.inject_end &&
           flow.bytes_in_flight + flow.mss() <= flow.cwnd &&
           flow.media_available()) {
      send_packet(flow);
    }
  }

  void send_packet(FlowState& flow) {
    const std::uint32_t seq = flow.next_seq++;
    ++flow.stats.sent_packets;
    obs::count("traffic.sent");
    if (flow.spec->config.source_bitrate_bps > 0.0)
      flow.media_credit_bytes -= flow.mss();
    flow.bytes_in_flight += flow.mss();
    if (!flow.rto_armed) arm_rto(flow);

    // Fault plane: consulted once, before the first queue. A drop here is
    // the injector's (faults.* / fault_drops) — the packet never occupies
    // queue bytes, so it can't also tail-drop or pick up an ECN mark.
    double extra_latency_ms = 0.0;
    if (auto* injector = net_.fault_injector(); injector != nullptr) {
      const auto verdict = injector->on_deliver(
          flow.probe, flow.path.routers.data(), flow.path.routers.size(),
          loop_.now().millis());
      if (verdict.drop) {
        ++flow.stats.fault_drops;
        obs::count("traffic.fault_drop");
        return;  // sender learns through the ack gap, like any loss
      }
      extra_latency_ms = verdict.extra_latency_ms;
    }

    const std::uint64_t index = alloc();
    auto& p = pool_[index];
    p.flow = &flow;
    p.link = nullptr;
    p.sent_at = loop_.now();
    p.seq = seq;
    p.bytes = flow.spec->config.packet_bytes;
    p.hop = 0;
    p.ecn = false;
    // Cross the sender's access leg (plus any fault latency) to hop 0.
    loop_.schedule_after(ms_time(flow.path.src_access_ms + extra_latency_ms),
                         *this, tag_of(index, kArrive));
  }

  void media_tick(FlowState& flow, std::uint64_t flow_index) {
    flow.media_credit_bytes += flow.mss();
    try_send(flow);
    const double interval_ms = static_cast<double>(flow.mss()) * 8e3 /
                               flow.spec->config.source_bitrate_bps;
    if (loop_.now() + ms_time(interval_ms) < flow.inject_end)
      loop_.schedule_after(ms_time(interval_ms), *this,
                           tag_of(flow_index, kMediaTick));
  }

  void arm_rto(FlowState& flow) {
    flow.rto_armed = true;
    loop_.schedule_after(ms_time(flow.rto_interval_ms()), *this,
                         tag_of(flow.index, kRto));
  }

  void rto_fire(FlowState& flow, std::uint64_t) {
    flow.rto_armed = false;
    if (flow.bytes_in_flight <= 0.0) return;  // try_send re-arms on demand
    if ((loop_.now() - flow.last_progress).millis() >=
        flow.rto_interval_ms()) {
      // Nothing came back for a full RTO: declare the window lost and
      // restart from the floor. No retransmission — this is a media
      // stream; the next frames matter, the lost ones do not.
      flow.bytes_in_flight = 0.0;
      flow.cwnd = kMinCwndPackets * flow.mss();
      flow.ssthresh = std::max(flow.cwnd, flow.ssthresh * 0.5);
      ++flow.stats.cwnd_decreases;
      ++flow.stats.rto_resets;
      obs::count("traffic.rto_reset");
      try_send(flow);
    }
    if (flow.bytes_in_flight > 0.0) arm_rto(flow);
  }

  void sample(FlowState& flow, std::uint64_t flow_index) {
    flow.stats.timeline.push_back(
        StreamSample{(loop_.now() - flow.start).millis(),
                     flow.last_queue_delay_ms, flow.cwnd});
    const auto interval = ms_time(flow.spec->config.sample_interval_ms);
    if (loop_.now() + interval <= flow.inject_end)
      loop_.schedule_after(interval, *this, tag_of(flow_index, kSample));
  }

  void maybe_decrease(FlowState& flow, double beta) {
    // At most one multiplicative decrease per RTT: a whole window of ECN
    // echoes is one congestion signal, not dozens.
    const double guard_ms = std::max(flow.srtt_ms, 10.0);
    if (loop_.now().millis() - flow.last_decrease_ms < guard_ms) return;
    flow.last_decrease_ms = loop_.now().millis();
    flow.cwnd = std::max(kMinCwndPackets * flow.mss(), flow.cwnd * beta);
    flow.ssthresh = flow.cwnd;
    ++flow.stats.cwnd_decreases;
  }

  void ack(PacketInFlight& p, std::uint64_t index) {
    FlowState& flow = *p.flow;
    auto& s = flow.stats;
    // Sequence-gap loss detection: same path, same size, FIFO queues — so
    // acks arrive in send order and a gap means the missing packets died.
    if (p.seq > flow.next_ack_expected) {
      const std::uint64_t gap = p.seq - flow.next_ack_expected;
      s.loss_detected += gap;
      flow.bytes_in_flight = std::max(
          0.0, flow.bytes_in_flight - static_cast<double>(gap) * flow.mss());
      maybe_decrease(flow, kLossBeta);
    }
    if (p.seq >= flow.next_ack_expected) flow.next_ack_expected = p.seq + 1;
    flow.bytes_in_flight =
        std::max(0.0, flow.bytes_in_flight - flow.mss());
    flow.last_progress = loop_.now();

    const double rtt_ms = (loop_.now() - p.sent_at).millis();
    flow.srtt_ms =
        flow.srtt_ms <= 0.0 ? rtt_ms : 0.875 * flow.srtt_ms + 0.125 * rtt_ms;
    if (s.min_rtt_ms <= 0.0 || rtt_ms < s.min_rtt_ms) s.min_rtt_ms = rtt_ms;
    if (rtt_ms > s.max_rtt_ms) s.max_rtt_ms = rtt_ms;
    const double queue_delay_ms = std::max(0.0, rtt_ms - s.base_rtt_ms);
    flow.last_queue_delay_ms = queue_delay_ms;
    flow.queue_delay_sum_ms += queue_delay_ms;
    ++flow.rtt_samples;
    if (queue_delay_ms > s.queue_delay_max_ms)
      s.queue_delay_max_ms = queue_delay_ms;
    obs::histogram_observe(s.queue_delay_hist_ms, queue_delay_ms,
                           obs::kQueueDelayBucketsMs);
    obs::observe("traffic.queue_delay_ms", queue_delay_ms,
                 obs::kRttBucketsMs);

    if (p.ecn) {
      ++s.ecn_marks;
      obs::count("traffic.ecn_echo");
      maybe_decrease(flow, kEcnBeta);
    } else if (flow.cwnd < flow.ssthresh) {
      flow.cwnd += flow.mss();  // slow start
    } else {
      flow.cwnd += flow.mss() * flow.mss() / flow.cwnd;  // additive increase
    }
    flow.cwnd = std::min(flow.cwnd, kMaxCwndPackets * flow.mss());
    release(index);
    try_send(flow);
  }

  // --- network side ----------------------------------------------------------

  LinkState* link_state(RouterId u, RouterId v) {
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (const auto it = links_.find(key); it != links_.end())
      return it->second.get();
    const auto* capacity = net_.link_capacity(u, v);
    if (capacity == nullptr) {
      links_.emplace(key, nullptr);  // negative-cache uncapacitated links
      return nullptr;
    }
    auto state =
        std::make_unique<LinkState>(*capacity, net_.min_link_latency(u, v));
    auto* raw = state.get();
    links_.emplace(key, std::move(state));
    return raw;
  }

  void arrive(PacketInFlight& p, std::uint64_t index) {
    FlowState& flow = *p.flow;
    const auto& routers = flow.path.routers;
    if (p.hop + 1 >= routers.size()) {
      // At the destination router: cross the access leg and deliver.
      loop_.schedule_after(ms_time(flow.path.dst_access_ms), *this,
                           tag_of(index, kDeliver));
      return;
    }
    const RouterId u = routers[p.hop];
    const RouterId v = routers[p.hop + 1];
    LinkState* link = link_state(u, v);
    if (link == nullptr) {
      // Uncapacitated link: pure propagation, the pre-capacity behaviour.
      ++p.hop;
      loop_.schedule_after(ms_time(net_.min_link_latency(u, v)), *this,
                           tag_of(index, kArrive));
      return;
    }
    if (!link->busy) {
      start_tx(*link, index);
      return;
    }
    if (!link->queue.offer(index, p.bytes, loop_.now())) {
      ++flow.stats.queue_drops;
      obs::count("traffic.queue_drop");
      release(index);
    }
    // Accepted: the packet waits in the FIFO; tx_complete pops it.
  }

  void start_tx(LinkState& link, std::uint64_t index) {
    link.busy = true;
    auto& p = pool_[index];
    p.link = &link;
    loop_.schedule_after(us_time(link.capacity->serialize_us(p.bytes)), *this,
                         tag_of(index, kTxComplete));
  }

  void tx_complete(PacketInFlight& p, std::uint64_t index) {
    LinkState& link = *p.link;
    p.link = nullptr;
    ++p.hop;
    loop_.schedule_after(ms_time(link.prop_ms), *this, tag_of(index, kArrive));
    if (!link.queue.empty()) {
      const auto entry = link.queue.pop();
      auto& next = pool_[entry.token];
      if (entry.ecn_marked) next.ecn = true;  // CE sticks for the whole path
      start_tx(link, entry.token);
    } else {
      link.busy = false;
    }
  }

  void deliver(PacketInFlight& p, std::uint64_t index) {
    FlowState& flow = *p.flow;
    ++flow.stats.delivered_packets;
    flow.stats.delivered_bytes += p.bytes;
    obs::count("traffic.delivered");
    // The receiver echoes seq + CE in a small ack that rides the reverse
    // path as pure delay: acks are ~2% of the data size, so their
    // serialization and queueing are below this model's resolution.
    loop_.schedule_after(ms_time(flow.reverse_delay_ms), *this,
                         tag_of(index, kAck));
  }

  // --- packet pool -----------------------------------------------------------

  std::uint64_t alloc() {
    if (!free_.empty()) {
      const std::uint64_t index = free_.back();
      free_.pop_back();
      return index;
    }
    pool_.emplace_back();
    return pool_.size() - 1;
  }
  void release(std::uint64_t index) { free_.push_back(index); }

  netsim::Network& net_;
  EventLoop loop_;
  std::vector<std::unique_ptr<FlowState>> flows_;
  std::unordered_map<std::uint64_t, std::unique_ptr<LinkState>> links_;
  std::vector<PacketInFlight> pool_;
  std::vector<std::uint64_t> free_;
};

}  // namespace

std::vector<StreamStats> run_streams(netsim::Network& net,
                                     const std::vector<StreamSpec>& specs) {
  obs::Span span("traffic.run", "transport");
  if (span) span.arg("flows", static_cast<std::int64_t>(specs.size()));
  const auto start = net.clock().now();
  Plane plane(net, specs);
  auto out = plane.run();
  // Charge the whole simulated episode to the shard clock, so suites that
  // run after a speed test see time exactly where the last packet left it.
  net.clock().advance(plane.loop().now() - start);
  return out;
}

}  // namespace vpna::transport
