// Process-wide registry of named monotonic counters, gauges, and latency
// histograms.
//
// Counters are sharded across cache-line-padded atomics so hot kernels
// (GEMM call/FLOP accounting, thread-pool task counts) can bump them from
// many workers without bouncing one cache line; reads sum the shards.
// Gauges hold a single double with set / add / set-max semantics (peak
// RSS, allocation-probe bytes). Histograms record nanosecond latencies
// into fixed log-scale buckets with the same sharding discipline, so hot
// sites (per-collective comm waits, thread-pool task run times, sweep
// stage durations, IO-retry backoffs) report full distributions — p50 /
// p90 / p99 / max, count, sum — instead of mean-only gauges.
//
// Hot-path idiom — resolve the registry entry once, then only touch the
// atomic:
//
//   static Counter& calls = MetricCounter("gemm.calls");
//   calls.Add(1);
//   static Histogram& sweeps = MetricHistogram("dtucker.sweep_ns");
//   sweeps.Record(elapsed_ns);
//
// MetricsRegistry::SnapshotJson() serializes every counter, gauge, and
// histogram, the global PhaseTimer buckets, and the process RSS, so every
// driver can emit one machine-readable metrics file next to its results
// (--metrics-out).
//
// Bounded sweep gauges: per-sweep convergence gauges
// ("dtucker.sweepNN.fit" etc., published by RecordSweepMetrics in
// tucker/tucker.h) are capped to a rolling window of the last K sweeps
// (default K = 64, SetSweepMetricsWindow): sweep t lands in slot
// ((t - 1) % K) + 1, so long online/range runs reuse the same K * 4 gauge
// names instead of growing the registry without bound. Cumulative
// "dtucker.sweeps.count" / ".total_seconds" / ".total_subspace_iterations"
// gauges carry the whole-run totals alongside the window.
//
// The registry is process-wide: every thread of a multi-thread solve
// records into it, so one snapshot holds the whole run.
#ifndef DTUCKER_COMMON_METRICS_H_
#define DTUCKER_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"

namespace dtucker {

namespace internal_metrics {
// Stable per-thread shard index (threads are striped round-robin).
unsigned ThreadShard();
}  // namespace internal_metrics

// Monotonic counter. Add() is wait-free (one relaxed fetch_add on the
// caller's shard); Value() sums the shards.
class Counter {
 public:
  static constexpr unsigned kShards = 8;

  void Add(std::uint64_t v) {
    shards_[internal_metrics::ThreadShard() & (kShards - 1)].value.fetch_add(
        v, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[kShards];
};

// Last-written double with atomic set / add / running-max updates.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }

  void SetMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Merged, single-threaded view of one histogram: raw power-of-two bucket
// counts plus the exact sum and max. Histograms merge by adding buckets,
// so quantiles over a merge are exact over the union of the samples.
struct HistogramData {
  static constexpr unsigned kBuckets = 40;

  std::uint64_t buckets[kBuckets] = {0};
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;

  // Bucket b covers [2^b, 2^(b+1)) ns for 1 <= b < kBuckets - 1; bucket 0
  // additionally absorbs 0 ns and the last bucket is open-ended
  // (2^39 ns ~ 550 s), so the scheme spans ~2 ns rendezvous latencies to
  // ~100 s-class timeouts with <= 2x relative error per bucket.
  static unsigned BucketIndex(std::uint64_t ns);
  static std::uint64_t BucketLowerNs(unsigned b);

  std::uint64_t Count() const;
  // Linear interpolation inside the bucket holding the q-th sample
  // (0 <= q <= 1), clamped to the observed max; monotone in q. Returns 0
  // for an empty histogram.
  double QuantileNs(double q) const;
};

// Log-scale latency histogram. Record() is wait-free: two relaxed
// fetch_adds plus a rarely-contended running-max CAS, all on the caller's
// cache-line-padded shard — the same discipline as Counter, so hot sites
// (thread-pool tasks, collective waits) can record from many workers
// without bouncing one line.
class Histogram {
 public:
  static constexpr unsigned kShards = 4;
  static constexpr unsigned kBuckets = HistogramData::kBuckets;

  void Record(std::uint64_t ns) {
    Shard& s = shards_[internal_metrics::ThreadShard() & (kShards - 1)];
    s.buckets[HistogramData::BucketIndex(ns)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum_ns.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t cur = s.max_ns.load(std::memory_order_relaxed);
    while (ns > cur && !s.max_ns.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
  }

  HistogramData Snapshot() const;
  std::uint64_t Count() const { return Snapshot().Count(); }
  std::uint64_t SumNs() const { return Snapshot().sum_ns; }

  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> sum_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
  };
  Shard shards_[kShards];
};

// Name -> Counter/Gauge/Histogram map. Entries are created on first lookup
// and live for the process lifetime (stable addresses, safe to cache in
// statics).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Zeroes every counter, gauge, and histogram (entries stay registered).
  // Intended for tests and per-run benchmark brackets; concurrent Add()s
  // may survive.
  void ResetAll();

  // {"counters": {...}, "gauges": {...}, "histograms": {...}, "phases":
  //  {...seconds...},
  //  "process": {"rss_bytes": ..., "peak_rss_bytes": ...}}
  // Each histogram entry reports {"count", "sum", "p50", "p90", "p99",
  // "max", "buckets"} with every time in nanoseconds.
  std::string SnapshotJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Shorthand registry lookups (one mutex acquisition; cache the reference).
Counter& MetricCounter(const std::string& name);
Gauge& MetricGauge(const std::string& name);
Histogram& MetricHistogram(const std::string& name);

// Process-wide phase-time accumulator (thread-safe PhaseTimer): every
// solver records its coarse phases here under "dtucker.*" / "method.*"
// buckets, so HOSVD, the baselines, and D-Tucker all report wall time
// through one channel. Included in SnapshotJson() under "phases".
PhaseTimer& GlobalPhaseTimer();

}  // namespace dtucker

#endif  // DTUCKER_COMMON_METRICS_H_
