// Tests for the counter/gauge registry, the thread-safe PhaseTimer, and
// the metrics JSON snapshot. The 8-thread monotonicity tests run under
// TSan via `ctest -L tsan` (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "json_test_util.h"

namespace dtucker {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.Value(), 7u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, MonotonicUnderEightThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(GaugeTest, SetAddSetMax) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.SetMax(3.0);  // Below current: no change.
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.SetMax(10.0);
  EXPECT_DOUBLE_EQ(g.Value(), 10.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(GaugeTest, SetMaxUnderEightThreads) {
  Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 5000; ++i) {
        g.SetMax(static_cast<double>(t * 10000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.Value(), 7.0 * 10000 + 4999);
}

TEST(MetricsRegistryTest, SameNameSameCounter) {
  Counter& a = MetricCounter("test.same_name");
  Counter& b = MetricCounter("test.same_name");
  EXPECT_EQ(&a, &b);
  const std::uint64_t before = a.Value();
  b.Add(5);
  EXPECT_EQ(a.Value(), before + 5);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      Counter& c = MetricCounter("test.concurrent_registration");
      c.Add(1);
      seen[static_cast<std::size_t>(t)] = &c;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
  EXPECT_GE(MetricCounter("test.concurrent_registration").Value(),
            static_cast<std::uint64_t>(kThreads));
}

TEST(MetricsRegistryTest, SnapshotJsonIsValidAndContainsEntries) {
  MetricCounter("test.snapshot_counter").Add(11);
  MetricGauge("test.snapshot_gauge").Set(2.75);
  GlobalPhaseTimer().Add("test.snapshot_phase", 0.125);

  json_test::JsonValue root;
  const std::string text = MetricsRegistry::Global().SnapshotJson();
  ASSERT_TRUE(json_test::JsonParser::Parse(text, &root))
      << "snapshot must be valid JSON:\n" << text;
  ASSERT_TRUE(root.IsObject());
  ASSERT_TRUE(root.Has("counters"));
  ASSERT_TRUE(root.Has("gauges"));
  ASSERT_TRUE(root.Has("phases"));
  ASSERT_TRUE(root.Has("process"));

  EXPECT_GE(root.at("counters").at("test.snapshot_counter").number_value, 11);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.snapshot_gauge").number_value,
                   2.75);
  EXPECT_GE(root.at("phases").at("test.snapshot_phase").number_value, 0.125);
  EXPECT_TRUE(root.at("process").Has("rss_bytes"));
  EXPECT_TRUE(root.at("process").Has("peak_rss_bytes"));
}

TEST(HistogramTest, RecordCountSumMax) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  h.Record(3);
  h.Record(100);
  h.Record(7);
  const HistogramData data = h.Snapshot();
  EXPECT_EQ(data.Count(), 3u);
  EXPECT_EQ(data.sum_ns, 110u);
  EXPECT_EQ(data.max_ns, 100u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.SumNs(), 0u);
}

TEST(HistogramTest, BucketIndexIsLogTwoWithClampedEnds) {
  // Bucket b covers [2^b, 2^(b+1)); bucket 0 absorbs 0/1 ns, the last is
  // open-ended.
  EXPECT_EQ(HistogramData::BucketIndex(0), 0u);
  EXPECT_EQ(HistogramData::BucketIndex(1), 0u);
  EXPECT_EQ(HistogramData::BucketIndex(2), 1u);
  EXPECT_EQ(HistogramData::BucketIndex(3), 1u);
  EXPECT_EQ(HistogramData::BucketIndex(4), 2u);
  EXPECT_EQ(HistogramData::BucketIndex((1ull << 20) - 1), 19u);
  EXPECT_EQ(HistogramData::BucketIndex(1ull << 20), 20u);
  EXPECT_EQ(HistogramData::BucketIndex(~0ull), HistogramData::kBuckets - 1);
  for (unsigned b = 0; b + 1 < HistogramData::kBuckets; ++b) {
    EXPECT_LT(HistogramData::BucketLowerNs(b),
              HistogramData::BucketLowerNs(b + 1));
  }
}

TEST(HistogramTest, QuantilesAreMonotoneAndClampedToMax) {
  Histogram h;
  for (std::uint64_t ns = 1; ns <= 1000; ++ns) h.Record(ns);
  const HistogramData data = h.Snapshot();
  const double p50 = data.QuantileNs(0.50);
  const double p90 = data.QuantileNs(0.90);
  const double p99 = data.QuantileNs(0.99);
  const double p100 = data.QuantileNs(1.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p100);
  EXPECT_LE(p100, static_cast<double>(data.max_ns));
  // Log buckets give <= 2x relative error: the true p50 is 500.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_LE(data.QuantileNs(0.0), p50);  // q = 0 targets the first sample.
  EXPECT_DOUBLE_EQ(HistogramData{}.QuantileNs(0.5), 0.0);
}

TEST(HistogramTest, AllZeroSamplesGiveZeroQuantiles) {
  // A rank that never blocks records only 0 ns waits: max is 0, so every
  // quantile must be 0 too rather than an interpolated point of bucket 0.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(0);
  const HistogramData data = h.Snapshot();
  ASSERT_EQ(data.Count(), 100u);
  EXPECT_EQ(data.max_ns, 0u);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(data.QuantileNs(q), 0.0) << "q = " << q;
  }
}

TEST(HistogramTest, ConcurrentRecordsMergeAcrossShards) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kRecords = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kRecords; ++i) {
        h.Record(static_cast<std::uint64_t>(i) + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramData data = h.Snapshot();
  EXPECT_EQ(data.Count(), static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_EQ(data.max_ns, static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(data.sum_ns, static_cast<std::uint64_t>(kThreads) * kRecords *
                             (kRecords + 1) / 2);
}

TEST(MetricsRegistryTest, SnapshotJsonContainsHistogramSection) {
  Histogram& h = MetricHistogram("test.snapshot_histogram");
  h.Reset();
  for (int i = 0; i < 100; ++i) h.Record(1u << (i % 10));

  json_test::JsonValue root;
  const std::string text = MetricsRegistry::Global().SnapshotJson();
  ASSERT_TRUE(json_test::JsonParser::Parse(text, &root)) << text;
  ASSERT_TRUE(root.Has("histograms"));
  const auto& entry = root.at("histograms").at("test.snapshot_histogram");
  EXPECT_EQ(entry.at("count").number_value, 100.0);
  EXPECT_EQ(entry.at("max").number_value, 512.0);
  const double p50 = entry.at("p50").number_value;
  const double p90 = entry.at("p90").number_value;
  const double p99 = entry.at("p99").number_value;
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, entry.at("max").number_value);
  ASSERT_TRUE(entry.at("buckets").IsArray());
}

TEST(MemoryTest, PeakRssAtLeastCurrentRss) {
  const std::size_t current = CurrentRssBytes();
  const std::size_t peak = PeakRssBytes();
  // Both come from /proc on Linux; if available, peak >= current modulo
  // sampling skew of a page or two.
  if (current > 0 && peak > 0) {
    EXPECT_GE(peak + (1u << 20), current);
  }
}

TEST(PhaseTimerTest, ConcurrentAddsMerge) {
  PhaseTimer timer;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timer] {
      for (int i = 0; i < kAdds; ++i) timer.Add("shared.bucket", 0.001);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_NEAR(timer.Total("shared.bucket"), kThreads * kAdds * 0.001, 1e-6);
  EXPECT_NEAR(timer.GrandTotal(), kThreads * kAdds * 0.001, 1e-6);
  const auto totals = timer.totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_NEAR(totals.at("shared.bucket"), kThreads * kAdds * 0.001, 1e-6);
}

TEST(PhaseTimerTest, ScopedPhaseAccumulates) {
  PhaseTimer timer;
  {
    ScopedPhase phase(&timer, "scoped");
  }
  {
    ScopedPhase phase(&timer, "scoped");
  }
  EXPECT_GE(timer.Total("scoped"), 0.0);
  EXPECT_EQ(timer.totals().size(), 1u);
}

}  // namespace
}  // namespace dtucker
