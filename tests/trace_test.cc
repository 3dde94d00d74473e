// Tests for the span tracer: nesting, ring-buffer wrap, Chrome-trace JSON
// round-trip, multi-thread recording, and the disabled-tracer
// zero-allocation guarantee (via the global operator new probe of
// bench/alloc_probe.cpp, shared with bench_dtucker).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_probe.h"
#include "common/memory.h"
#include "common/trace.h"
#include "json_test_util.h"

namespace dtucker {
namespace {

using internal_trace::SnapshotEvent;
using internal_trace::SnapshotEvents;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTraceEnabled(false);
    ClearTrace();
  }
  void TearDown() override {
    SetTraceEnabled(false);
    ClearTrace();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  {
    TraceSpan span("should.not.appear");
  }
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST_F(TraceTest, NestedSpansRecordDepthAndContainment) {
  SetTraceEnabled(true);
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
    }
  }
  SetTraceEnabled(false);

  std::vector<SnapshotEvent> events = SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction: inner closes first.
  const auto& inner = events[0].event;
  const auto& outer = events[1].event;
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  // Parent/child ordering: the child interval nests inside the parent's.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  // Both recorded by this thread.
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, SpanStartedDisabledStaysUnrecorded) {
  // The span latches the disabled state at construction, so destructing
  // with tracing enabled must still record nothing.
  {
    TraceSpan span("started.disabled");
    SetTraceEnabled(true);
  }
  SetTraceEnabled(false);
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST_F(TraceTest, MultipleThreadsGetDistinctThreadIds) {
  SetTraceEnabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      TraceSpan span("worker");
    });
  }
  for (auto& t : threads) t.join();
  SetTraceEnabled(false);

  std::vector<SnapshotEvent> events = SnapshotEvents();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads));
  std::vector<std::uint32_t> tids;
  for (const auto& se : events) tids.push_back(se.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
      << "every recording thread must have its own id";
}

TEST_F(TraceTest, ChromeExportIsValidJsonWithExpectedEvents) {
  SetTraceEnabled(true);
  {
    TraceSpan outer("phase \"quoted\"\n");  // Exercises escaping.
    TraceSpan inner("kernel");
  }
  SetTraceEnabled(false);

  std::ostringstream os;
  ExportChromeTrace(os);
  json_test::JsonValue root;
  ASSERT_TRUE(json_test::JsonParser::Parse(os.str(), &root))
      << "exporter must emit valid JSON:\n" << os.str();
  ASSERT_TRUE(root.IsObject());
  ASSERT_TRUE(root.Has("traceEvents"));
  const auto& events = root.at("traceEvents");
  ASSERT_TRUE(events.IsArray());
  int complete_events = 0;
  int metadata_events = 0;
  for (const auto& ev : events.array) {
    ASSERT_TRUE(ev.Has("ph"));
    if (ev.at("ph").string_value == "X") {
      ++complete_events;
      EXPECT_TRUE(ev.Has("name"));
      EXPECT_TRUE(ev.Has("ts"));
      EXPECT_TRUE(ev.Has("dur"));
      EXPECT_TRUE(ev.Has("tid"));
      EXPECT_TRUE(ev.Has("pid"));
      EXPECT_GE(ev.at("dur").number_value, 0.0);
    } else if (ev.at("ph").string_value == "M") {
      ++metadata_events;
    }
  }
  EXPECT_EQ(complete_events, 2);
  // Lane metadata (process_name + process_sort_index) for the rank-0 lane.
  EXPECT_GE(metadata_events, 2);
}

TEST_F(TraceTest, RingBufferWrapsAndCountsDrops) {
  SetTraceBufferCapacity(64);
  SetTraceEnabled(true);
  std::thread recorder([] {
    // A fresh thread picks up the small capacity set above.
    for (int i = 0; i < 200; ++i) {
      TraceSpan span("wrap");
    }
  });
  recorder.join();
  SetTraceEnabled(false);

  EXPECT_EQ(TraceEventCount(), 64u);
  EXPECT_EQ(TraceDroppedEventCount(), 200u - 64u);
  SetTraceBufferCapacity(1u << 15);  // Restore the default for later tests.
}

TEST_F(TraceTest, DisabledSpanAddsNoAllocations) {
  ASSERT_FALSE(TraceEnabled());
  // Warm up any lazy statics touched by the probe bracket itself.
  {
    TraceSpan warmup("warmup");
  }
  const std::size_t before = AllocatedBytes();
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("hot.path");
  }
  EXPECT_EQ(AllocatedBytes(), before)
      << "a disabled TraceSpan must not allocate";
}

TEST_F(TraceTest, EnabledSpanRecordPathDoesNotAllocateAfterRegistration) {
  SetTraceEnabled(true);
  {
    TraceSpan warmup("warmup");  // Registers this thread's ring buffer.
  }
  const std::size_t before = AllocatedBytes();
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("hot.path");
  }
  EXPECT_EQ(AllocatedBytes(), before)
      << "the record path must reuse the ring buffer, not allocate";
  SetTraceEnabled(false);
}

TEST_F(TraceTest, RankTagWithoutSpansTakesNoRingStorage) {
  // Chunk workers tag themselves before any span runs, and with tracing off
  // they never record one: at the default 32768-event capacity, eagerly
  // allocated rings would cost ~1.5 MiB per thread (~384 MiB here).
  ASSERT_FALSE(TraceEnabled());
  const std::size_t rss_before = CurrentRssBytes();
  const std::size_t allocated_before = AllocatedBytes();
  for (int i = 0; i < 256; ++i) {
    std::thread rank_thread([] {
      SetTraceRankForCurrentThread(3);
      TraceSpan span("disabled.rank.work");
    });
    rank_thread.join();  // One at a time, so thread stacks are reused.
  }
  constexpr std::size_t kLimit = std::size_t{16} << 20;
  EXPECT_LT(AllocatedBytes() - allocated_before, kLimit);
  const std::size_t rss_after = CurrentRssBytes();
  EXPECT_LT(rss_after > rss_before ? rss_after - rss_before : 0, kLimit);

  // A thread that does record gets its ring, and its events outlive it.
  SetTraceEnabled(true);
  std::thread traced([] {
    SetTraceRankForCurrentThread(3);
    TraceSpan span("rank3.after.exit");
  });
  traced.join();
  SetTraceEnabled(false);
  std::ostringstream os;
  ExportChromeTrace(os);
  json_test::JsonValue root;
  ASSERT_TRUE(json_test::JsonParser::Parse(os.str(), &root)) << os.str();
  int found = 0;
  for (const auto& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string_value == "X" &&
        ev.at("name").string_value == "rank3.after.exit") {
      ++found;
      EXPECT_EQ(ev.at("pid").number_value, 3.0);
    }
  }
  EXPECT_EQ(found, 1);
}

TEST_F(TraceTest, ClearTraceDropsBufferedEvents) {
  SetTraceEnabled(true);
  {
    TraceSpan span("to.be.cleared");
  }
  SetTraceEnabled(false);
  ASSERT_GT(TraceEventCount(), 0u);
  ClearTrace();
  EXPECT_EQ(TraceEventCount(), 0u);
  EXPECT_EQ(TraceDroppedEventCount(), 0u);
}

TEST_F(TraceTest, WriteChromeTraceReportsBadPath) {
  EXPECT_FALSE(WriteChromeTrace("/nonexistent-dir/trace.json").ok());
}

TEST_F(TraceTest, ExportReportsExactDropCountsAfterThreadExit) {
  SetTraceBufferCapacity(16);
  SetTraceEnabled(true);
  std::thread recorder([] {
    // Fresh thread -> fresh (tiny) ring.
    for (int i = 0; i < 100; ++i) {
      TraceSpan span("overflow");
    }
  });
  recorder.join();  // Both survivors and drop counts outlive the thread.
  SetTraceEnabled(false);

  EXPECT_EQ(TraceEventCount(), 16u);
  EXPECT_EQ(TraceDroppedEventCount(), 84u);

  std::ostringstream os;
  ExportChromeTrace(os);
  json_test::JsonValue root;
  ASSERT_TRUE(json_test::JsonParser::Parse(os.str(), &root)) << os.str();
  ASSERT_TRUE(root.Has("otherData"));
  EXPECT_EQ(root.at("otherData").at("dropped_events").number_value, 84.0);

  int survivors = 0;
  bool drop_metadata_found = false;
  for (const auto& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string_value == "X" &&
        ev.at("name").string_value == "overflow") {
      ++survivors;
    }
    if (ev.at("ph").string_value == "M" &&
        ev.at("name").string_value == "trace_buffer_dropped") {
      drop_metadata_found = true;
      EXPECT_EQ(ev.at("args").at("dropped").number_value, 84.0);
    }
  }
  EXPECT_EQ(survivors, 16);
  EXPECT_TRUE(drop_metadata_found)
      << "per-buffer drop accounting must reach the export";
  SetTraceBufferCapacity(1u << 15);
}

TEST_F(TraceTest, RankTagsBecomePidLanes) {
  SetTraceEnabled(true);
  std::thread rank2([] {
    SetTraceRankForCurrentThread(2);
    TraceSpan span("rank2.work");
  });
  rank2.join();
  SetTraceEnabled(false);

  std::ostringstream os;
  ExportChromeTrace(os);
  json_test::JsonValue root;
  ASSERT_TRUE(json_test::JsonParser::Parse(os.str(), &root)) << os.str();
  bool span_found = false;
  bool lane_found = false;
  for (const auto& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string_value == "X" &&
        ev.at("name").string_value == "rank2.work") {
      span_found = true;
      EXPECT_EQ(ev.at("pid").number_value, 2.0);
    }
    if (ev.at("ph").string_value == "M" &&
        ev.at("name").string_value == "process_name" &&
        ev.at("pid").number_value == 2.0) {
      lane_found = true;
    }
  }
  EXPECT_TRUE(span_found);
  EXPECT_TRUE(lane_found);
}

}  // namespace
}  // namespace dtucker
