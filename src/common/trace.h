// Process-wide span tracer with Chrome-trace (chrome://tracing / Perfetto)
// JSON export, rank-aware for multi-rank runs.
//
// Usage: wrap a scope in `TraceSpan span("name");` (or DT_TRACE_SPAN("name")).
// When tracing is disabled — the default — a span costs one relaxed atomic
// load and two branch-predicted tests: no clock read, no allocation, no
// store. When enabled via SetTraceEnabled(true), each span records a
// {name, start, duration, depth} event into a fixed-capacity per-thread
// ring buffer (old events are overwritten when a thread's buffer wraps, so
// long runs degrade to "most recent window" instead of unbounded memory).
// WriteChromeTrace() serializes every thread's events as `trace_event`
// "X" (complete) events; Perfetto reconstructs the nesting from the
// timestamps within each tid.
//
// Lanes: each recording thread can be tagged with a rank
// (SetTraceRankForCurrentThread); the rank becomes the Chrome-trace `pid`,
// so every tag gets its own lane in Perfetto (D-Tucker's chunk workers tag
// themselves 1, 2, ...). All lanes are threads of one process, so they
// share one clock and one export.
//
// Span names must be string literals (or otherwise outlive the export):
// only the pointer is stored, which is what keeps the record path
// allocation-free.
//
// Thread safety: spans may begin and end on any thread concurrently (each
// thread writes only its own buffer; buffer registration takes a mutex
// once per thread). Export/Clear must not run concurrently with in-flight
// spans — quiesce (join workers / finish the traced region) first.
#ifndef DTUCKER_COMMON_TRACE_H_
#define DTUCKER_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace dtucker {

namespace internal_trace {

extern std::atomic<bool> g_trace_enabled;

// One recorded span. Timestamps are steady-clock nanoseconds since the
// trace epoch (the first SetTraceEnabled(true) of the process).
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t depth = 0;  // Nesting depth on the recording thread; 0 = root.
};

// A TraceEvent paired with the stable id of the thread that recorded it
// and the rank its buffer was tagged with at snapshot time.
struct SnapshotEvent {
  std::uint32_t tid = 0;
  int rank = 0;
  TraceEvent event;
};

// Out-of-line slow path of TraceSpan (only reached when tracing is on).
// SpanBegin bumps the thread's depth and returns the start timestamp;
// SpanEnd pops the depth and pushes the completed event.
std::uint64_t SpanBegin();
void SpanEnd(const char* name, std::uint64_t start_ns);

// All currently buffered events, oldest-first per thread. For tests and
// the JSON exporter; same quiescence requirement as the exporter.
std::vector<SnapshotEvent> SnapshotEvents();

}  // namespace internal_trace

// Whether spans are currently being recorded.
inline bool TraceEnabled() {
  return internal_trace::g_trace_enabled.load(std::memory_order_relaxed);
}

// Turns recording on/off. The first enable fixes the trace epoch.
void SetTraceEnabled(bool enabled);

// Per-thread ring capacity (events) for buffers created *after* this call;
// rounded up to a power of two. Default 32768 (~1.5 MiB per thread, taken
// only once the thread records its first span). Also
// serves as the test hook for forcing tiny rings to exercise overflow
// accounting.
void SetTraceBufferCapacity(std::size_t events);

// Drops all buffered events (buffers stay registered and keep their
// capacity). Requires quiescence like the exporter.
void ClearTrace();

// Number of buffered events across all threads, and the number lost to
// ring-buffer wrap-around since the last ClearTrace().
std::size_t TraceEventCount();
std::uint64_t TraceDroppedEventCount();

// --- Rank / run identity ----------------------------------------------------

// Tags the calling thread's trace buffer with a rank: its events export
// under Chrome-trace pid == rank. Threads never tagged export on rank
// 0's lane; ForkJoin (common/thread_pool.h) tags each helper with its
// worker index as it joins a call. Safe to call at any time from the owning
// thread. The first call on a thread registers its buffer at the current
// capacity, but storage is allocated only when the thread records its
// first span.
void SetTraceRankForCurrentThread(int rank);

// Identifies this run in exported traces (otherData.run_id and the lane
// names).
void SetTraceRunId(std::uint64_t run_id);
std::uint64_t TraceRunId();

// --- Export -----------------------------------------------------------------

// Serializes the buffered events in Chrome trace_event JSON ("X" complete
// events, ts/dur in microseconds; one pid lane per rank seen). otherData
// carries run_id and the exact total of ring-overflow drops; each
// overflowing thread additionally gets a
// per-tid "trace_buffer_dropped" metadata event. The output loads directly
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
void ExportChromeTrace(std::ostream& os);
Status WriteChromeTrace(const std::string& path);

// RAII span. Construction samples the clock only when tracing is enabled;
// destruction records the event into the calling thread's ring buffer.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TraceEnabled()) {
      name_ = name;
      start_ns_ = internal_trace::SpanBegin();
    }
  }

  ~TraceSpan() {
    if (name_ != nullptr) internal_trace::SpanEnd(name_, start_ns_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  // Null when the span started disabled.
  std::uint64_t start_ns_ = 0;
};

#define DT_TRACE_CONCAT_INNER(a, b) a##b
#define DT_TRACE_CONCAT(a, b) DT_TRACE_CONCAT_INNER(a, b)
// Anonymous scope span: DT_TRACE_SPAN("phase.name");
#define DT_TRACE_SPAN(name) \
  ::dtucker::TraceSpan DT_TRACE_CONCAT(dt_trace_span_, __LINE__)(name)

}  // namespace dtucker

#endif  // DTUCKER_COMMON_TRACE_H_
