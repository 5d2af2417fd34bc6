// Congestion-controlled streaming over the capacity-aware traffic plane.
//
// A StreamSpec describes one RTP-like media flow: a sender that clocks
// fixed-size packets out of a source queue under a SCReAM-style,
// ack-clocked congestion window. run_streams() simulates any number of
// such flows *concurrently* on one netsim::EventLoop — packets interleave
// in the per-link FIFO queues (netsim::LinkQueue), compete for link
// bandwidth, pick up ECN marks above the queue threshold and tail-drop
// when a buffer fills — and returns per-flow statistics: goodput, RTT and
// queueing-delay distributions, ECN/drop counts and the congestion
// controller's decrease history.
//
// The controller is deliberately SCReAM-lite (media-rate congestion
// control, not a TCP clone): slow-start doubling to first congestion,
// then additive increase per ack; multiplicative decrease at most once
// per RTT on an ECN echo (beta 0.8) or a detected loss (beta 0.5); lost
// packets are *not* retransmitted — a media stream ships the next frame
// instead — and a stalled window is rescued by an RTO-style reset so
// hostile fault windows cannot wedge a flow forever.
//
// Determinism: the traffic plane draws no randomness at all. Every event
// is a pure function of (topology, capacities, specs, fault plan, virtual
// time) and the EventLoop dispatches ties in schedule order, so a run is
// bit-identical across processes and worker counts.
//
// Fault composition (the drop/ECN double-count audit): the network's
// FaultInjector is consulted exactly once per data packet, at injection
// time, before the packet enters its first link queue. A fault drop is
// counted under faults.* (by the injector) and StreamStats::fault_drops —
// never as a queue tail-drop or an ECN mark, and a fault-dropped packet
// never occupies queue bytes. Conservation therefore holds exactly:
// sent_packets == delivered_packets + queue_drops + fault_drops.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/network.h"
#include "obs/metrics.h"

namespace vpna::transport {

struct StreamConfig {
  // Injection window in virtual seconds; in-flight packets drain after.
  double duration_s = 2.0;
  std::uint32_t packet_bytes = 1200;  // fixed media packet size (MSS)
  // Source media rate; 0 = full-buffer (speed-test mode: the source queue
  // is never empty and the controller probes for the path capacity).
  double source_bitrate_bps = 0.0;
  // Timeline sampling period for StreamStats::timeline (0 disables).
  double sample_interval_ms = 100.0;
};

// One timeline sample (sim-time relative to flow start).
struct StreamSample {
  double t_ms = 0.0;
  double queue_delay_ms = 0.0;  // most recent per-ack queueing-delay sample
  double cwnd_bytes = 0.0;
};

struct StreamStats {
  bool ran = false;  // false: no route from src to dst (flow skipped)
  std::uint64_t sent_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t queue_drops = 0;   // tail-dropped at a full link buffer
  std::uint64_t fault_drops = 0;   // dropped by the fault injector
  std::uint64_t ecn_marks = 0;     // CE echoes seen by the sender
  std::uint64_t loss_detected = 0; // sequence gaps observed in acks
  int cwnd_decreases = 0;          // multiplicative decreases (ECN+loss+RTO)
  int rto_resets = 0;              // stalled-window rescues
  double base_rtt_ms = 0.0;        // jitter-free analytic path RTT
  double min_rtt_ms = 0.0;
  double max_rtt_ms = 0.0;
  double queue_delay_mean_ms = 0.0;
  double queue_delay_max_ms = 0.0;
  // Per-ack queueing-delay distribution (kQueueDelayBucketsMs buckets);
  // feed obs::histogram_quantile for p50/p90/p99. Sim-time derived, so
  // deterministic like every other stat here.
  obs::HistogramData queue_delay_hist_ms;
  double cwnd_final_bytes = 0.0;
  double duration_s = 0.0;  // the configured injection window
  std::vector<StreamSample> timeline;

  [[nodiscard]] double goodput_mbps() const noexcept {
    return duration_s > 0.0
               ? static_cast<double>(delivered_bytes) * 8.0 / duration_s / 1e6
               : 0.0;
  }
  [[nodiscard]] double loss_rate() const noexcept {
    return sent_packets > 0
               ? static_cast<double>(queue_drops + fault_drops) /
                     static_cast<double>(sent_packets)
               : 0.0;
  }
  [[nodiscard]] double ecn_rate() const noexcept {
    return delivered_packets > 0 ? static_cast<double>(ecn_marks) /
                                       static_cast<double>(delivered_packets)
                                 : 0.0;
  }
};

struct StreamSpec {
  netsim::Host* src = nullptr;
  netsim::IpAddr dst;
  std::uint16_t dst_port = netsim::kPortSpeedTest;
  StreamConfig config;
};

// Simulates every spec concurrently on one event loop over `net`'s link
// capacities, starting at net.clock().now(); on return the network clock
// has advanced to the time the last in-flight packet drained. Stats are
// aligned with `specs`. Uncapacitated links on a path behave as pure
// delay (the pre-capacity fiction); a fully uncapacitated path therefore
// never drops, marks or queues.
[[nodiscard]] std::vector<StreamStats> run_streams(
    netsim::Network& net, const std::vector<StreamSpec>& specs);

}  // namespace vpna::transport
