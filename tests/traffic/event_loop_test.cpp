#include "netsim/event_loop.h"

#include <gtest/gtest.h>

#include <vector>

namespace vpna::netsim {
namespace {

using util::SimTime;

// Records each dispatched tag together with the loop's time at dispatch.
struct Recorder final : EventActor {
  std::vector<std::pair<std::int64_t, std::uint64_t>> seen;
  void on_event(EventLoop& loop, std::uint64_t tag) override {
    seen.emplace_back(loop.now().micros(), tag);
  }
};

TEST(EventLoop, DispatchesInTimestampOrder) {
  EventLoop loop;
  Recorder rec;
  loop.schedule_at(SimTime(300), rec, 3);
  loop.schedule_at(SimTime(100), rec, 1);
  loop.schedule_at(SimTime(200), rec, 2);
  EXPECT_EQ(loop.run(), 3u);
  ASSERT_EQ(rec.seen.size(), 3u);
  EXPECT_EQ(rec.seen[0], std::make_pair(std::int64_t{100}, std::uint64_t{1}));
  EXPECT_EQ(rec.seen[1], std::make_pair(std::int64_t{200}, std::uint64_t{2}));
  EXPECT_EQ(rec.seen[2], std::make_pair(std::int64_t{300}, std::uint64_t{3}));
  EXPECT_EQ(loop.now(), SimTime(300));
}

TEST(EventLoop, TiesBreakInScheduleOrder) {
  EventLoop loop;
  Recorder rec;
  // Same instant, scheduled 5..1: dispatch order must be schedule order,
  // not heap order.
  for (std::uint64_t tag = 5; tag >= 1; --tag)
    loop.schedule_at(SimTime(42), rec, tag);
  loop.run();
  ASSERT_EQ(rec.seen.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(rec.seen[i].second, 5 - i);
}

TEST(EventLoop, PastTimesClampToNow) {
  EventLoop loop(SimTime(1000));
  Recorder rec;
  loop.schedule_at(SimTime(10), rec, 7);  // in the past
  EXPECT_EQ(loop.run(), 1u);
  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0].first, 1000);  // ran at now(), not at 10
  EXPECT_EQ(loop.now(), SimTime(1000));
}

TEST(EventLoop, EventsScheduledDuringDispatchRun) {
  struct Chain final : EventActor {
    int hops = 0;
    void on_event(EventLoop& loop, std::uint64_t tag) override {
      ++hops;
      if (tag > 0) loop.schedule_after(SimTime(10), *this, tag - 1);
    }
  } chain;
  EventLoop loop;
  loop.schedule_at(SimTime(0), chain, 4);
  EXPECT_EQ(loop.run(), 5u);
  EXPECT_EQ(chain.hops, 5);
  EXPECT_EQ(loop.now(), SimTime(40));
  EXPECT_EQ(loop.dispatched(), 5u);
}

TEST(EventLoop, RunOnEmptyLoopDispatchesNothing) {
  EventLoop loop(SimTime(70));
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_EQ(loop.dispatched(), 0u);
  EXPECT_EQ(loop.now(), SimTime(70));
}

TEST(EventLoop, StartTimeIsRespected) {
  EventLoop loop(SimTime(5000));
  EXPECT_EQ(loop.now(), SimTime(5000));
  Recorder rec;
  loop.schedule_after(SimTime(25), rec, 9);
  loop.run();
  EXPECT_EQ(rec.seen[0].first, 5025);
}

}  // namespace
}  // namespace vpna::netsim
