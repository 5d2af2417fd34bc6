#include "netsim/event_loop.h"

#include <algorithm>

namespace vpna::netsim {

void EventLoop::schedule_at(util::SimTime at, EventActor& actor,
                            std::uint64_t tag) {
  if (at < now_) at = now_;
  heap_.push_back(Event{at.micros(), next_seq_++, &actor, tag});
  std::push_heap(heap_.begin(), heap_.end(), &EventLoop::later);
}

bool EventLoop::run_one() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), &EventLoop::later);
  const Event ev = heap_.back();
  heap_.pop_back();
  now_ = util::SimTime(ev.at_us);
  ++dispatched_;
  ev.actor->on_event(*this, ev.tag);
  return true;
}

std::size_t EventLoop::run() {
  std::size_t n = 0;
  while (run_one()) ++n;
  return n;
}

}  // namespace vpna::netsim
