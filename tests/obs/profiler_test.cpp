// Wall-clock profiler tests, driven through obs::Span: the disabled fast
// path records nothing, enabled spans attribute self/total time exactly
// (self = total − enclosed children, also when spans end out of LIFO
// order), a span feeds the trace and the profiler at once, per-thread
// tables fold into one deterministic-ordered report, and the text rendering
// carries the phase and flame rows. A scaled census shard's world build
// is profiled as `shard.build`, like a paper shard's.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/parallel_campaign.h"
#include "ecosystem/scale.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace vpna::obs {
namespace {

// Spins until at least `us` microseconds of wall time passed, so enclosed
// phases accumulate a measurable, strictly positive duration.
void busy_wait_us(std::int64_t us) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < us) {
  }
}

const ProfileReport::Phase* find_phase(const ProfileReport& report,
                                       const std::string& name) {
  for (const auto& phase : report.phases)
    if (phase.name == name) return &phase;
  return nullptr;
}

const ProfileReport::PathRow* find_path(const ProfileReport& report,
                                        const std::string& path) {
  for (const auto& row : report.flame)
    if (row.path == path) return &row;
  return nullptr;
}

// The profiler is process-global; every test starts from a clean slate and
// leaves it disabled for whoever runs next in this binary.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::disable();
    Profiler::instance().reset();
  }
  void TearDown() override {
    Profiler::disable();
    Profiler::instance().reset();
  }
};

TEST_F(ProfilerTest, DisabledScopesRecordNothing) {
  {
    Span outer("off.outer", "pt");
    Span inner("off.inner", "pt");
  }
  const auto report = Profiler::instance().report();
  EXPECT_EQ(find_phase(report, "off.outer"), nullptr);
  EXPECT_EQ(find_phase(report, "off.inner"), nullptr);
}

TEST_F(ProfilerTest, SelfPlusChildrenEqualsTotalExactly) {
  Profiler::enable();
  {
    Span outer("pt.outer", "pt");
    busy_wait_us(300);
    {
      Span inner("pt.inner", "pt");
      busy_wait_us(300);
    }
    busy_wait_us(100);
  }
  const auto report = Profiler::instance().report();
  const auto* outer = find_phase(report, "pt.outer");
  const auto* inner = find_phase(report, "pt.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->stats.calls, 1u);
  EXPECT_EQ(inner->stats.calls, 1u);
  EXPECT_GT(inner->stats.total_ns, 0);
  // A leaf's self time is its total; the parent's self is exactly total
  // minus the enclosed child (single-threaded, so no folding slack).
  EXPECT_EQ(inner->stats.self_ns, inner->stats.total_ns);
  EXPECT_EQ(outer->stats.self_ns + inner->stats.total_ns,
            outer->stats.total_ns);
  EXPECT_GE(outer->stats.total_ns, inner->stats.total_ns);
}

// A tunnelled net.transact opens a second net.transact frame inside the
// first: the phase's total is the outer frame's duration, not the sum of
// both, while calls and self time still count every frame.
TEST_F(ProfilerTest, NestedSameNameFramesCountTheirTotalOnce) {
  Profiler::enable();
  {
    Span outer("pt.same", "pt");
    busy_wait_us(200);
    {
      Span mid("pt.between", "pt");
      Span inner("pt.same", "pt");
      busy_wait_us(300);
    }
    busy_wait_us(100);
  }
  const auto report = Profiler::instance().report(/*flame_top_n=*/100);
  const auto* phase = find_phase(report, "pt.same");
  const auto* outer = find_path(report, "pt.same");
  const auto* inner = find_path(report, "pt.same;pt.between;pt.same");
  ASSERT_NE(phase, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(phase->stats.calls, 2u);
  EXPECT_EQ(phase->stats.total_ns, outer->stats.total_ns);
  EXPECT_EQ(phase->stats.self_ns, outer->stats.self_ns + inner->stats.self_ns);
  EXPECT_GT(inner->stats.total_ns, 0);
}

TEST_F(ProfilerTest, OutOfOrderEndsAttributeExactlyAndBalanceTheStack) {
  Profiler::enable();
  {
    Span root("pt.ooo_root", "pt");
    busy_wait_us(100);
    Span outer("pt.ooo_outer", "pt");
    busy_wait_us(200);
    Span inner("pt.ooo_inner", "pt");
    busy_wait_us(200);
    outer.end();  // the enclosing span ends first
    busy_wait_us(200);
    inner.end();
    busy_wait_us(100);
  }
  const auto report = Profiler::instance().report(/*flame_top_n=*/100);
  const auto* root = find_phase(report, "pt.ooo_root");
  const auto* outer = find_phase(report, "pt.ooo_outer");
  const auto* inner = find_phase(report, "pt.ooo_inner");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->stats.calls, 1u);
  EXPECT_EQ(inner->stats.calls, 1u);
  // Every instant is charged to exactly one frame, the innermost open one:
  // the root's total is the three self times, with no gap or overlap.
  EXPECT_EQ(root->stats.self_ns + outer->stats.self_ns + inner->stats.self_ns,
            root->stats.total_ns);
  // The inner span was innermost for its whole life, before and after its
  // parent ended; the parent's self stops where the inner span began.
  EXPECT_EQ(inner->stats.self_ns, inner->stats.total_ns);
  EXPECT_GT(outer->stats.self_ns, 0);
  EXPECT_LT(outer->stats.self_ns + inner->stats.self_ns,
            outer->stats.total_ns + inner->stats.total_ns);
  EXPECT_NE(find_path(report, "pt.ooo_root;pt.ooo_outer;pt.ooo_inner"),
            nullptr);
  // Balanced: the next span opens at the root of the stack.
  { Span after("pt.ooo_after", "pt"); }
  EXPECT_NE(find_path(Profiler::instance().report(100), "pt.ooo_after"),
            nullptr);
}

TEST_F(ProfilerTest, SpanFeedsTheTraceAndTheProfilerAtOnce) {
  util::SimClock clock;
  TraceRecorder recorder(TraceConfig{.enabled = true});
  recorder.bind_clock(&clock);
  Profiler::enable();
  {
    ScopedObservation bind(&recorder, nullptr);
    Span span("pt.both", "pt");
    EXPECT_TRUE(span);
    clock.advance_millis(5);
    busy_wait_us(100);
  }
  ASSERT_EQ(recorder.events().size(), 1u);
  EXPECT_EQ(recorder.events()[0].name, "pt.both");
  EXPECT_EQ(recorder.events()[0].category, "pt");
  EXPECT_EQ(recorder.events()[0].sim_dur_us, 5000);
  const auto report = Profiler::instance().report();
  const auto* phase = find_phase(report, "pt.both");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->stats.calls, 1u);
  EXPECT_GT(phase->stats.total_ns, 0);
}

TEST_F(ProfilerTest, FlameRowsCarryFullStackPaths) {
  Profiler::enable();
  {
    Span outer("pt.flame_outer", "pt");
    Span inner("pt.flame_inner", "pt");
    busy_wait_us(200);
  }
  const auto report = Profiler::instance().report();
  EXPECT_NE(find_path(report, "pt.flame_outer"), nullptr);
  EXPECT_NE(find_path(report, "pt.flame_outer;pt.flame_inner"), nullptr);
}

TEST_F(ProfilerTest, FlameTopNTruncates) {
  Profiler::enable();
  for (int i = 0; i < 8; ++i) {
    Span scope("pt.topn_" + std::to_string(i), "pt");
    busy_wait_us(50);
  }
  const auto full = Profiler::instance().report(/*flame_top_n=*/100);
  const auto cut = Profiler::instance().report(/*flame_top_n=*/3);
  EXPECT_GE(full.flame.size(), 8u);
  EXPECT_EQ(cut.flame.size(), 3u);
  // The per-phase table never truncates.
  EXPECT_EQ(cut.phases.size(), full.phases.size());
}

TEST_F(ProfilerTest, PhasesOrderedBySelfTimeDescending) {
  Profiler::enable();
  {
    Span slow("pt.order_slow", "pt");
    busy_wait_us(2000);
  }
  {
    Span fast("pt.order_fast", "pt");
    busy_wait_us(100);
  }
  const auto report = Profiler::instance().report();
  for (std::size_t i = 1; i < report.phases.size(); ++i)
    EXPECT_GE(report.phases[i - 1].stats.self_ns,
              report.phases[i].stats.self_ns);
  // And the deliberately slow phase sorts before the fast one.
  std::size_t slow_at = report.phases.size(), fast_at = report.phases.size();
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    if (report.phases[i].name == "pt.order_slow") slow_at = i;
    if (report.phases[i].name == "pt.order_fast") fast_at = i;
  }
  ASSERT_LT(slow_at, report.phases.size());
  ASSERT_LT(fast_at, report.phases.size());
  EXPECT_LT(slow_at, fast_at);
}

TEST_F(ProfilerTest, FoldsAcrossThreads) {
  Profiler::enable();
  const auto work = [] {
    Span scope("pt.threads", "pt");
    busy_wait_us(200);
  };
  std::thread a(work), b(work);
  a.join();
  b.join();
  work();  // and once on this thread
  const auto report = Profiler::instance().report();
  const auto* phase = find_phase(report, "pt.threads");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->stats.calls, 3u);
  EXPECT_GE(report.threads, 3u);
}

TEST_F(ProfilerTest, ResetClearsAccumulatedTables) {
  Profiler::enable();
  {
    Span scope("pt.reset_me", "pt");
    busy_wait_us(100);
  }
  ASSERT_NE(find_phase(Profiler::instance().report(), "pt.reset_me"), nullptr);
  Profiler::instance().reset();
  EXPECT_EQ(find_phase(Profiler::instance().report(), "pt.reset_me"), nullptr);
}

TEST_F(ProfilerTest, ScopeOpenedWhileDisabledStaysInert) {
  // Enabling mid-scope must not unbalance the frame stack: the scope was
  // constructed inert and stays inert for its whole lifetime.
  {
    Span scope("pt.inert", "pt");
    Profiler::enable();
    busy_wait_us(100);
  }
  EXPECT_EQ(find_phase(Profiler::instance().report(), "pt.inert"), nullptr);
  // And the stack is balanced: a fresh scope records exactly one call.
  {
    Span scope("pt.after_inert", "pt");
    busy_wait_us(100);
  }
  const auto report = Profiler::instance().report();
  const auto* phase = find_phase(report, "pt.after_inert");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->stats.calls, 1u);
}

TEST_F(ProfilerTest, RenderCarriesPhaseAndFlameLines) {
  Profiler::enable();
  {
    Span outer("pt.render_outer", "pt");
    Span inner("pt.render_inner", "pt");
    busy_wait_us(100);
  }
  const auto text = render_profile_text(Profiler::instance().report());
  EXPECT_NE(text.find("phase pt.render_outer calls=1"), std::string::npos);
  EXPECT_NE(text.find("path pt.render_outer;pt.render_inner"),
            std::string::npos);
  EXPECT_NE(text.find("# wall-clock profile"), std::string::npos);
}

// A census shard's world build shows up under the same phase name as a
// paper shard's, so a --scale profile says where build time goes.
TEST_F(ProfilerTest, CensusShardBuildIsAPhase) {
  const auto catalog = ecosystem::generate_scaled_catalog(4, 50, 20181031);
  Profiler::enable();
  const auto census =
      core::run_scaled_census_shard(catalog, 0, core::ScaledCampaignOptions{});
  EXPECT_GT(census.hosts, 0u);
  const auto report = Profiler::instance().report();
  const auto* phase = find_phase(report, "shard.build");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->stats.calls, 1u);
  EXPECT_GT(phase->stats.total_ns, 0);
}

}  // namespace
}  // namespace vpna::obs
