#include "common/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

namespace dtucker {

namespace internal_trace {

std::atomic<bool> g_trace_enabled{false};

namespace {

std::atomic<std::size_t> g_buffer_capacity{1u << 15};
std::atomic<std::uint64_t> g_run_id{0};

std::uint64_t NowNanos() {
  // The epoch is fixed the first time this runs (under SetTraceEnabled's
  // call, before any span can record), so exported timestamps start near 0.
  static const std::chrono::steady_clock::time_point kEpoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

// Fixed-capacity ring of TraceEvents, written only by its owning thread.
// The registry keeps a shared_ptr so events survive thread exit. The rank
// tag is atomic because the owning thread retags while the exporter reads.
// The capacity is fixed at construction but the storage is allocated on the
// first Push, under the registry lock (the exporter reads rings only under
// that lock, so it sees either no storage or all of it): threads that only
// tag a rank, or run with tracing off, never pay for a ring.
class ThreadTraceBuffer {
 public:
  ThreadTraceBuffer(std::uint32_t tid, std::size_t capacity, std::mutex* mutex)
      : tid_(tid), capacity_(capacity), registry_mutex_(mutex) {}

  void Push(const TraceEvent& ev) {
    if (ring_.empty()) {
      std::lock_guard<std::mutex> lock(*registry_mutex_);
      ring_.resize(capacity_);
    }
    ring_[head_ & (capacity_ - 1)] = ev;
    ++head_;
  }

  void Clear() { head_ = 0; }

  std::uint32_t tid() const { return tid_; }
  int rank() const { return rank_.load(std::memory_order_relaxed); }
  void set_rank(int rank) { rank_.store(rank, std::memory_order_relaxed); }
  std::size_t size() const { return head_ < capacity_ ? head_ : capacity_; }
  std::uint64_t dropped() const {
    return head_ > capacity_ ? head_ - capacity_ : 0;
  }

  // Oldest-first copy of the buffered events.
  void AppendTo(std::vector<SnapshotEvent>* out) const {
    const int r = rank();
    const std::size_t n = size();
    const std::size_t begin = head_ - n;
    for (std::size_t i = 0; i < n; ++i) {
      out->push_back(
          SnapshotEvent{tid_, r, ring_[(begin + i) & (capacity_ - 1)]});
    }
  }

 private:
  const std::uint32_t tid_;
  const std::size_t capacity_;  // A power of two.
  std::atomic<int> rank_{0};
  std::mutex* const registry_mutex_;
  std::size_t head_ = 0;  // Monotonic; ring index is head_ & (capacity_ - 1).
  std::vector<TraceEvent> ring_;
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

BufferRegistry& Registry() {
  static BufferRegistry* const kRegistry = new BufferRegistry;
  return *kRegistry;
}

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

ThreadTraceBuffer* CurrentThreadBuffer() {
  thread_local std::shared_ptr<ThreadTraceBuffer> tls_buffer = [] {
    BufferRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto buf = std::make_shared<ThreadTraceBuffer>(
        reg.next_tid++, g_buffer_capacity.load(std::memory_order_relaxed),
        &reg.mutex);
    reg.buffers.push_back(buf);
    return buf;
  }();
  return tls_buffer.get();
}

thread_local std::uint32_t tls_depth = 0;

void JsonEscapeTo(const char* s, std::string* out) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

// One thread's buffer, copied out under the registry lock so serialization
// runs without it.
struct BufferSnapshot {
  std::uint32_t tid = 0;
  int rank = 0;
  std::uint64_t dropped = 0;
  std::vector<SnapshotEvent> events;
};

std::vector<BufferSnapshot> SnapshotBuffers() {
  BufferRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<BufferSnapshot> out;
  for (const auto& buf : reg.buffers) {
    BufferSnapshot snap;
    snap.tid = buf->tid();
    snap.rank = buf->rank();
    snap.dropped = buf->dropped();
    buf->AppendTo(&snap.events);
    out.push_back(std::move(snap));
  }
  return out;
}

void AppendSep(bool* first, std::string* out) {
  if (!*first) out->append(",\n");
  *first = false;
}

// Perfetto lane metadata for one rank: process name + sort order.
void AppendLaneMetadata(int rank, std::uint64_t run_id, bool* first,
                        std::string* out) {
  char buf[192];
  AppendSep(first, out);
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                "\"tid\":0,\"args\":{\"name\":\"dtucker run %" PRIu64
                " rank %d\"}}",
                rank, run_id, rank);
  out->append(buf);
  AppendSep(first, out);
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":%d,"
                "\"tid\":0,\"args\":{\"sort_index\":%d}}",
                rank, rank);
  out->append(buf);
}

// One "X" event.
void AppendEventJson(const SnapshotEvent& se, bool* first, std::string* out) {
  const double ts_us = static_cast<double>(se.event.start_ns) * 1e-3;
  const double dur_us = static_cast<double>(se.event.dur_ns) * 1e-3;
  char buf[192];
  AppendSep(first, out);
  out->append("{\"name\":\"");
  JsonEscapeTo(se.event.name, out);
  std::snprintf(buf, sizeof(buf),
                "\",\"cat\":\"dtucker\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%u}}",
                se.rank, se.tid, ts_us, dur_us, se.event.depth);
  out->append(buf);
}

// Serializes a buffer set as comma-joined event objects: lane metadata for
// every rank present, per-tid drop accounting, then the events.
std::string SerializeEvents(const std::vector<BufferSnapshot>& buffers) {
  const std::uint64_t run_id = g_run_id.load(std::memory_order_relaxed);
  std::string out;
  std::size_t total_events = 0;
  for (const BufferSnapshot& b : buffers) total_events += b.events.size();
  out.reserve(total_events * 112 + 256);
  bool first = true;

  std::vector<int> ranks_seen;
  for (const BufferSnapshot& b : buffers) {
    bool seen = false;
    for (int r : ranks_seen) seen = seen || r == b.rank;
    if (!seen) ranks_seen.push_back(b.rank);
  }
  if (ranks_seen.empty()) ranks_seen.push_back(0);
  for (int r : ranks_seen) AppendLaneMetadata(r, run_id, &first, &out);

  char buf[160];
  for (const BufferSnapshot& b : buffers) {
    if (b.dropped == 0) continue;
    AppendSep(&first, &out);
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"trace_buffer_dropped\","
                  "\"pid\":%d,\"tid\":%u,\"args\":{\"dropped\":%" PRIu64 "}}",
                  b.rank, b.tid, b.dropped);
    out.append(buf);
  }

  for (const BufferSnapshot& b : buffers) {
    for (const SnapshotEvent& se : b.events) {
      AppendEventJson(se, &first, &out);
    }
  }
  return out;
}

}  // namespace

std::uint64_t SpanBegin() {
  ++tls_depth;
  return NowNanos();
}

void SpanEnd(const char* name, std::uint64_t start_ns) {
  const std::uint64_t end_ns = NowNanos();
  --tls_depth;
  TraceEvent ev;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  ev.depth = tls_depth;
  CurrentThreadBuffer()->Push(ev);
}

std::vector<SnapshotEvent> SnapshotEvents() {
  BufferRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<SnapshotEvent> out;
  for (const auto& buf : reg.buffers) buf->AppendTo(&out);
  return out;
}

}  // namespace internal_trace

void SetTraceEnabled(bool enabled) {
  if (enabled) {
    // Fix the epoch before the first span can observe the flag, so exported
    // timestamps start near zero.
    (void)internal_trace::NowNanos();
  }
  internal_trace::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void SetTraceBufferCapacity(std::size_t events) {
  if (events == 0) events = 1;
  internal_trace::g_buffer_capacity.store(
      internal_trace::RoundUpPow2(events), std::memory_order_relaxed);
}

void ClearTrace() {
  auto& reg = internal_trace::Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buf : reg.buffers) buf->Clear();
}

std::size_t TraceEventCount() {
  auto& reg = internal_trace::Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t n = 0;
  for (const auto& buf : reg.buffers) n += buf->size();
  return n;
}

std::uint64_t TraceDroppedEventCount() {
  auto& reg = internal_trace::Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t n = 0;
  for (const auto& buf : reg.buffers) n += buf->dropped();
  return n;
}

void SetTraceRankForCurrentThread(int rank) {
  internal_trace::CurrentThreadBuffer()->set_rank(rank);
}

void SetTraceRunId(std::uint64_t run_id) {
  internal_trace::g_run_id.store(run_id, std::memory_order_relaxed);
}

std::uint64_t TraceRunId() {
  return internal_trace::g_run_id.load(std::memory_order_relaxed);
}

void ExportChromeTrace(std::ostream& os) {
  const std::vector<internal_trace::BufferSnapshot> buffers =
      internal_trace::SnapshotBuffers();
  std::uint64_t dropped_total = 0;
  for (const auto& b : buffers) dropped_total += b.dropped;
  char buf[128];
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"dtucker\",";
  std::snprintf(buf, sizeof(buf),
                "\"run_id\":\"%" PRIu64 "\",\"dropped_events\":%" PRIu64 "},",
                TraceRunId(), dropped_total);
  out += buf;
  out += "\"traceEvents\":[";
  out += internal_trace::SerializeEvents(buffers);
  out += "]}\n";
  os << out;
}

Status WriteChromeTrace(const std::string& path) {
  std::ofstream os(path, std::ios::out | std::ios::trunc);
  if (!os.is_open()) {
    return Status::IoError("cannot open trace output '" + path + "'");
  }
  ExportChromeTrace(os);
  os.flush();
  if (!os.good()) {
    return Status::IoError("failed writing trace output '" + path + "'");
  }
  return Status::OK();
}

}  // namespace dtucker
