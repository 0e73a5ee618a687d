// Tests of the benchmark's own arithmetic: the tail-percentile rule, span
// self time, span nesting in the trace, and open-loop due-time accounting.
// run.py --self-test runs these, then parses a real traced run's trace file
// with Python's json module.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "harness.h"

namespace cipbench {
namespace {

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  // n = 100: p90 is rank 90, exactly 10 beyond; p91 would leave 9.
  Tail t = TailPercentile(OneTo(100));
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  // n = 1000: p99 is rank 990, 10 beyond.
  t = TailPercentile(OneTo(1000));
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  // n = 37: p72 -> rank ceil(26.64) = 27, 10 beyond; p73 -> rank 28, 9.
  t = TailPercentile(OneTo(37));
  EXPECT_EQ(t.percentile, 72);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 27.0);
}

TEST(TailPercentile, OrderOfInputDoesNotMatter) {
  std::vector<double> v = OneTo(50);
  std::reverse(v.begin(), v.end());
  const Tail t = TailPercentile(v);
  EXPECT_EQ(t.percentile, 80);  // rank 40, 10 beyond
  EXPECT_DOUBLE_EQ(t.value, 40.0);
}

TEST(TailPercentile, TooSmallSampleReportsItsMaximum) {
  const Tail t = TailPercentile(OneTo(15));
  EXPECT_EQ(t.percentile, 100);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_DOUBLE_EQ(t.value, 15.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

Span MakeSpan(std::uint64_t id, std::uint64_t parent, const char* name,
              double start_us, double end_us) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  // round [0, 10 ms): two overlapping parallel children [1, 5) and [2, 6)
  // cover 5 ms, a third [8, 9) covers 1 ms -> 4 ms self. The grandchild
  // [2, 3) counts against its parent only.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "fl.round", 0, 10000),
      MakeSpan(2, 1, "core.train_local", 1000, 5000),
      MakeSpan(3, 1, "core.train_local", 2000, 6000),
      MakeSpan(4, 1, "fl.evict", 8000, 9000),
      MakeSpan(5, 4, "fl.export_state", 8000, 8250),
  };
  const std::map<std::string, double> self = SelfTimeMs(spans);
  EXPECT_NEAR(self.at("fl.round"), 4.0, 1e-9);
  EXPECT_NEAR(self.at("core.train_local"), 8.0, 1e-9);
  EXPECT_NEAR(self.at("fl.evict"), 0.75, 1e-9);
  EXPECT_NEAR(self.at("fl.export_state"), 0.25, 1e-9);
}

TEST(SelfTime, ChildrenOutsideTheParentAreClipped) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "a", 100, 200),
      MakeSpan(2, 1, "b", 50, 150),  // only [100, 150) lies inside a
  };
  EXPECT_NEAR(SelfTimeMs(spans).at("a"), 0.05, 1e-12);
}

TEST(CoveredLength, MergesOverlapsAndClips) {
  EXPECT_DOUBLE_EQ(CoveredLength({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4.0);
  EXPECT_DOUBLE_EQ(CoveredLength({{0, 2}, {1, 3}, {5, 6}}, 2, 5.5), 1.5);
  EXPECT_DOUBLE_EQ(CoveredLength({}, 0, 1), 0.0);
}

TEST(Trace, NestsSpansAndWritesChromeEvents) {
  Trace& tr = GlobalTrace();
  tr.set_enabled(true);
  SpanContext::tag.store(7);
  {
    ScopedSpan outer("fl.factory", 3);
    ScopedSpan inner("fl.restore_state", 3);
  }
  tr.set_enabled(false);
  { ScopedSpan ignored("not.recorded"); }
  const std::vector<Span> spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first and nests under outer on this thread.
  EXPECT_EQ(spans[0].name, "fl.restore_state");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[0].tag, 7u);
  EXPECT_LE(spans[1].start_us, spans[0].start_us);
  EXPECT_GE(spans[1].end_us, spans[0].end_us);

  std::ostringstream os;
  tr.WriteChrome(os, "{\"seed\":1,\"workload\":{\"name\":\"x\"}}");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fl.restore_state\""), std::string::npos);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Three queries due at 0, 1 and 2 ms; the generator stalls until 5 ms,
  // sends all three, and they complete at 6 ms. A closed-loop clock would
  // report 1 ms each; due-time accounting charges the stall.
  const double done = 6e-3;
  double latency_sum = 0.0, lateness_sum = 0.0;
  for (double due : {0.0, 1e-3, 2e-3}) {
    const QueryTimes t{due, 5e-3, done};
    latency_sum += t.latency();
    lateness_sum += t.lateness();
  }
  EXPECT_NEAR(latency_sum, 15e-3, 1e-12);   // 6 + 5 + 4 ms
  EXPECT_NEAR(lateness_sum, 12e-3, 1e-12);  // 5 + 4 + 3 ms
  const QueryTimes on_time{1.0, 1.0, 1.25};
  EXPECT_DOUBLE_EQ(on_time.lateness(), 0.0);
  EXPECT_DOUBLE_EQ(on_time.latency(), 0.25);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHasTheRate) {
  ArrivalSchedule a(1000.0, 42), b(1000.0, 42), c(1000.0, 43);
  double last = 0.0, first_c = c.Next();
  bool differs = false;
  for (int i = 0; i < 20000; ++i) {
    const double ta = a.Next();
    EXPECT_EQ(ta, b.Next());
    EXPECT_GT(ta, last);  // strictly increasing due times
    last = ta;
    if (i == 0) differs = ta != first_c;
  }
  EXPECT_TRUE(differs);
  // 20000 arrivals at 1000/s take about 20 s (sd of the sum ~0.14 s).
  EXPECT_NEAR(last, 20.0, 1.0);
}

}  // namespace
}  // namespace cipbench
