// The runtime half of the fault plane: evaluates a FaultPlan against each
// delivered packet.
//
// Determinism contract: a verdict is a pure function of (plan, packet
// fields, resolved path, virtual time, per-flow roll counter). The
// probabilistic decisions use a counter-based PRNG keyed on
// (plan seed, flow id, roll index) — no generator state is shared with the
// simulation's Rng streams, so installing an injector never perturbs
// jitter, topology or service randomness, and replaying the same shard
// yields bit-identical drops at any worker count. The flow id hashes
// (src addr, dst addr, proto, dst port) — deliberately NOT the source
// port, which transport::Flow redraws per attempt: a retry of the same
// logical flow advances the roll counter instead of rehashing to an
// unrelated stream, which is what makes "drop attempt 1, deliver attempt
// 2" reproducible.
//
// The injector counts every fault it injects (injected(): drops and added
// latency alike), which is what a degradation record attributes to. Each
// fault is also counted under `faults.*` on the thread-bound metrics
// registry and, when tracing, emitted as a `fault.inject` instant.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "faults/plan.h"
#include "netsim/fault.h"

namespace vpna::faults {

class Injector final : public netsim::FaultInjector {
 public:
  explicit Injector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  // Faults injected so far on this injector's network.
  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }

  netsim::FaultVerdict on_deliver(const netsim::Packet& packet,
                                  const netsim::RouterId* path,
                                  std::size_t path_len,
                                  double now_ms) override;

 private:
  // True with `probability`, advancing the flow's roll counter.
  [[nodiscard]] bool roll(const netsim::Packet& packet, double probability);
  // Fault bookkeeping: injected_, the per-kind counter plus the
  // `faults.injected` total, and a trace instant when a recorder is bound.
  void record(std::string_view kind, const netsim::Packet& packet);

  FaultPlan plan_;
  // Flow id -> next roll index. Touched only by the shard's own thread
  // (injectors are per-Network, Networks are per-shard).
  std::unordered_map<std::uint64_t, std::uint64_t> roll_counts_;
  std::uint64_t injected_ = 0;
};

}  // namespace vpna::faults
