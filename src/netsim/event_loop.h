// Discrete-event scheduler for the capacity-aware traffic plane.
//
// The legacy transact path is synchronous: one exchange at a time, the
// whole round trip charged to the SimClock before the next begins. That
// cannot express many flows in flight concurrently — packets interleaving
// in link queues is exactly what congestion *is*. The EventLoop closes the
// gap: a single-threaded priority queue of (virtual-time, callback) events
// in microseconds, dispatched in strictly deterministic order.
//
// Determinism contract: events are dispatched ordered by (timestamp,
// schedule sequence). Two events scheduled for the same instant run in the
// order they were scheduled, never in heap order or pointer order — so a
// traffic simulation replays bit-identically at any worker count as long
// as its own scheduling decisions are deterministic (the traffic plane
// draws no randomness at all).
//
// Events reference an EventActor plus an opaque 64-bit tag instead of a
// std::function, keeping the per-event cost allocation-free: the heap
// stores flat PODs, and bench_traffic's ns/event number is the budget this
// design is held to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/clock.h"

namespace vpna::netsim {

class EventLoop;

// Receiver of scheduled events. The tag is whatever the actor packed at
// schedule time (the traffic plane packs a packet-pool index plus an event
// kind); the loop never interprets it.
class EventActor {
 public:
  virtual ~EventActor() = default;
  virtual void on_event(EventLoop& loop, std::uint64_t tag) = 0;
};

class EventLoop {
 public:
  explicit EventLoop(util::SimTime start = {}) noexcept : now_(start) {}

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current virtual time: the timestamp of the event being dispatched (or
  // the start time before any ran). Never moves backwards.
  [[nodiscard]] util::SimTime now() const noexcept { return now_; }

  // Schedules `actor.on_event(*this, tag)` at virtual time `at`. Times in
  // the past are clamped to now() — the event still runs, after everything
  // already scheduled for now().
  void schedule_at(util::SimTime at, EventActor& actor, std::uint64_t tag = 0);
  void schedule_after(util::SimTime delay, EventActor& actor,
                      std::uint64_t tag = 0) {
    schedule_at(now_ + delay, actor, tag);
  }

  // Dispatches until the queue drains; returns events dispatched.
  std::size_t run();

  // Total events dispatched over the loop's lifetime (bench denominator).
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_;
  }

 private:
  struct Event {
    std::int64_t at_us = 0;
    std::uint64_t seq = 0;  // tie-break: schedule order wins at equal time
    EventActor* actor = nullptr;
    std::uint64_t tag = 0;
  };
  // Min-heap order for std::push_heap/pop_heap (which build max-heaps).
  static bool later(const Event& a, const Event& b) noexcept {
    if (a.at_us != b.at_us) return a.at_us > b.at_us;
    return a.seq > b.seq;
  }

  // Dispatches the earliest pending event. False when nothing is pending.
  bool run_one();

  std::vector<Event> heap_;
  util::SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace vpna::netsim
