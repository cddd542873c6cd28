// Unit tests of the benchmark's own logic (perfbench/src/core.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// --- percentile rule ---------------------------------------------------------

TEST(Percentile, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondNearestRank) {
  EXPECT_EQ(samples_beyond(100, 0.90), 10u);
  EXPECT_EQ(samples_beyond(99, 0.90), 9u);
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(Percentile, P90NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail(one_to(99), 0.90).has_value());
  const auto p90 = tail(one_to(100), 0.90);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);  // 10 samples (91..100) lie beyond it
}

TEST(Percentile, P95RefusedBelowTwoHundredSamples) {
  EXPECT_FALSE(tail(one_to(150), 0.95).has_value());
  EXPECT_FALSE(tail(one_to(199), 0.95).has_value());
  const auto p95 = tail(one_to(200), 0.95);
  ASSERT_TRUE(p95.has_value());
  EXPECT_DOUBLE_EQ(*p95, 190.0);
}

TEST(Percentile, TailIgnoresSampleOrder) {
  auto v = one_to(100);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(*tail(v, 0.90), 90.0);
}

TEST(Percentile, HighestSupportedQuantile) {
  EXPECT_FALSE(highest_supported_quantile(39).has_value());
  EXPECT_DOUBLE_EQ(*highest_supported_quantile(40), 0.75);
  EXPECT_DOUBLE_EQ(*highest_supported_quantile(100), 0.90);
  EXPECT_DOUBLE_EQ(*highest_supported_quantile(999), 0.95);
  EXPECT_DOUBLE_EQ(*highest_supported_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(*highest_supported_quantile(10000), 0.999);
}

// --- spans ---------------------------------------------------------------------

span make(const char* name, int parent, std::int64_t a, std::int64_t b) {
  span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // root [0,100) > a [10,30) > a1 [15,20);  root > b [50,90)
  const std::vector<span> s = {make("root", -1, 0, 100),
                               make("a", 0, 10, 30), make("a1", 1, 15, 20),
                               make("b", 0, 50, 90)};
  const auto self = self_times_ns(s);
  EXPECT_EQ(self[0], 100 - 20 - 40);
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 5);
  EXPECT_EQ(self[3], 40);
}

TEST(Spans, OverlappingChildrenCountOnce) {
  // Two children on other threads overlap in [40,60): covered = [20,80).
  const std::vector<span> s = {make("root", -1, 0, 100),
                               make("c", 0, 20, 60), make("c", 0, 40, 80)};
  EXPECT_EQ(self_times_ns(s)[0], 40);
}

TEST(Spans, ChildrenAreClippedToTheParent) {
  const std::vector<span> s = {make("root", -1, 10, 50),
                               make("c", 0, 0, 20)};
  EXPECT_EQ(self_times_ns(s)[0], 30);
}

TEST(Spans, TracerNestsPerThreadAndAggregatesByName) {
  tracer t;
  {
    const scoped_span outer(&t, "app.clip", 7);
    { const scoped_span inner(&t, "features.orb", 7); }
    { const scoped_span inner(&t, "features.orb", 7); }
  }
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[1].layer(), "features");
  for (const auto& s : spans) EXPECT_EQ(s.group, 7u);
  const auto by_name = self_time_by_name(spans);
  EXPECT_EQ(by_name.at("features.orb").count, 2u);
  EXPECT_EQ(by_name.at("app.clip").count, 1u);

  const auto tail_slice = t.spans_from(1);
  ASSERT_EQ(tail_slice.size(), 2u);
  EXPECT_EQ(tail_slice[0].parent, -1);  // parent fell outside the slice
}

// --- open loop -----------------------------------------------------------------

/// Deterministic clock: sleeping jumps to the target; each request takes a
/// fixed service time.
class fake_time final : public time_source {
 public:
  double now() override { return t_; }
  void sleep_until(double t) override { t_ = std::max(t_, t); }
  void advance(double dt) { t_ += dt; }

 private:
  double t_ = 0.0;
};

TEST(OpenLoop, DueTimesFollowTheRateWhenTheServerKeepsUp) {
  fake_time clock;
  const auto r = run_open_loop(clock, 1.0, 10.0, 5, 1, [&](std::size_t) {
    clock.advance(0.05);  // faster than the 0.1 s spacing
    return true;
  });
  ASSERT_EQ(r.size(), 5u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_DOUBLE_EQ(r[i].due, 1.0 + 0.1 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(r[i].lateness(), 0.0);
    EXPECT_NEAR(r[i].latency(), 0.05, 1e-12);
  }
}

TEST(OpenLoop, StallIsChargedFromTheDueTime) {
  fake_time clock;
  // 0.25 s per request against 0.1 s spacing: the lone client falls behind
  // by 0.15 s per request, and every request pays the backlog.
  const auto r = run_open_loop(clock, 0.0, 10.0, 4, 1, [&](std::size_t) {
    clock.advance(0.25);
    return true;
  });
  const double late[] = {0.0, 0.15, 0.30, 0.45};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r[i].lateness(), late[i], 1e-9);
    EXPECT_NEAR(r[i].latency(), late[i] + 0.25, 1e-9);
  }
}

TEST(OpenLoop, FailuresAreRecordedNotRetried) {
  fake_time clock;
  int calls = 0;
  const auto r = run_open_loop(clock, 0.0, 5.0, 3, 1, [&](std::size_t i) {
    ++calls;
    return i != 1;
  });
  EXPECT_EQ(calls, 3);
  EXPECT_TRUE(r[0].ok);
  EXPECT_FALSE(r[1].ok);
  EXPECT_TRUE(r[2].ok);
}

TEST(OpenLoop, ThrowingRequestCountsAsFailed) {
  fake_time clock;
  const auto r = run_open_loop(clock, 0.0, 5.0, 2, 1, [&](std::size_t i) {
    if (i == 0) throw std::runtime_error("connection refused");
    return true;
  });
  EXPECT_FALSE(r[0].ok);
  EXPECT_TRUE(r[1].ok);
}

TEST(OpenLoop, ThreadedClientsIssueEveryRequestOnce) {
  steady_time clock;
  std::mutex m;
  std::vector<int> seen(40, 0);
  const auto r = run_open_loop(clock, clock.now(), 2000.0, seen.size(), 4,
                               [&](std::size_t i) {
                                 const std::lock_guard<std::mutex> lock(m);
                                 ++seen[i];
                                 return true;
                               });
  for (int n : seen) EXPECT_EQ(n, 1);
  for (const auto& t : r) EXPECT_GE(t.sent, t.due);
}

// --- metric names and the result line ----------------------------------------

TEST(Metrics, NameValidity) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("serve_p95_ms.peak"));
  EXPECT_TRUE(valid_metric_name("1-x_y.z"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(Metrics, SetRejectsBadEntries) {
  metric_set m;
  m.add("a.b", 1.5, "ms");
  EXPECT_THROW(m.add("a.b", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("nan", std::nan(""), "ms"), std::invalid_argument);
}

TEST(Metrics, JsonKeepsOrderAndAllDigits) {
  metric_set m;
  m.add("z", 0.1234567890123, "s");
  m.add("a", 3.0, "1/s");
  EXPECT_EQ(m.json(),
            "{\"z\": {\"value\": 0.1234567890123, \"unit\": \"s\"}, "
            "\"a\": {\"value\": 3, \"unit\": \"1/s\"}}");
}

}  // namespace
}  // namespace perfbench
