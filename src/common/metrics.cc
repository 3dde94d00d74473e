#include "common/metrics.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/memory.h"

namespace dtucker {

namespace internal_metrics {

unsigned ThreadShard() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned shard =
      next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

}  // namespace internal_metrics

namespace {

// Doubles are serialized with enough digits to round-trip; integral values
// (phase seconds are not, gauge byte counts usually are) keep a compact form.
void AppendJsonDouble(double v, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendJsonUint(std::uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendJsonKey(const std::string& name, std::string* out) {
  out->push_back('"');
  for (char c : name) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->append("\":");
}

// One histogram as a JSON object (times in nanoseconds), indented as an
// entry of the snapshot's "histograms" section. The raw bucket array rides
// along so offline tooling can re-derive any quantile.
void AppendHistogramJson(const HistogramData& h, std::string* out) {
  out->append("{\n      \"count\": ");
  AppendJsonUint(h.Count(), out);
  out->append(",\n      \"sum\": ");
  AppendJsonUint(h.sum_ns, out);
  out->append(",\n      \"p50\": ");
  AppendJsonDouble(h.QuantileNs(0.50), out);
  out->append(",\n      \"p90\": ");
  AppendJsonDouble(h.QuantileNs(0.90), out);
  out->append(",\n      \"p99\": ");
  AppendJsonDouble(h.QuantileNs(0.99), out);
  out->append(",\n      \"max\": ");
  AppendJsonUint(h.max_ns, out);
  out->append(",\n      \"buckets\": [");
  for (unsigned b = 0; b < HistogramData::kBuckets; ++b) {
    if (b != 0) out->append(", ");
    AppendJsonUint(h.buckets[b], out);
  }
  out->append("]\n    }");
}

}  // namespace

unsigned HistogramData::BucketIndex(std::uint64_t ns) {
  if (ns < 2) return 0;
  unsigned b = 63u - static_cast<unsigned>(__builtin_clzll(ns));
  return b < kBuckets ? b : kBuckets - 1;
}

std::uint64_t HistogramData::BucketLowerNs(unsigned b) {
  return b == 0 ? 0 : (std::uint64_t{1} << b);
}

std::uint64_t HistogramData::Count() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : buckets) total += c;
  return total;
}

double HistogramData::QuantileNs(double q) const {
  const std::uint64_t count = Count();
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target the ceil(q * count)-th sample (1-based) so q = 1 is the last
  // sample and q = 0 the first; walk the cumulative bucket counts and
  // interpolate linearly inside the bucket that holds it.
  std::uint64_t target = static_cast<std::uint64_t>(q * count + 0.999999999);
  if (target < 1) target = 1;
  if (target > count) target = count;
  std::uint64_t cum = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (cum + buckets[b] >= target) {
      const double lower = static_cast<double>(BucketLowerNs(b));
      double upper = b + 1 < kBuckets
                         ? static_cast<double>(BucketLowerNs(b + 1))
                         : static_cast<double>(max_ns);
      if (upper < lower) upper = lower;
      const double frac =
          static_cast<double>(target - cum) / static_cast<double>(buckets[b]);
      double value = lower + frac * (upper - lower);
      // max_ns is exact, so it bounds every quantile, including when all
      // samples were 0 ns (bucket 0 spans [0, 2) and would otherwise
      // interpolate past the largest sample).
      return std::min(value, static_cast<double>(max_ns));
    }
    cum += buckets[b];
  }
  return static_cast<double>(max_ns);
}

HistogramData Histogram::Snapshot() const {
  HistogramData out;
  for (const Shard& s : shards_) {
    for (unsigned b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    out.sum_ns += s.sum_ns.load(std::memory_order_relaxed);
    const std::uint64_t m = s.max_ns.load(std::memory_order_relaxed);
    if (m > out.max_ns) out.max_ns = m;
  }
  return out;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (unsigned b = 0; b < kBuckets; ++b) {
      s.buckets[b].store(0, std::memory_order_relaxed);
    }
    s.sum_ns.store(0, std::memory_order_relaxed);
    s.max_ns.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: metric references cached in function-local statics
  // must stay valid through static destruction.
  static MetricsRegistry* const kRegistry = new MetricsRegistry;
  return *kRegistry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::SnapshotJson() const {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"counters\": {";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const auto& [name, c] : counters_) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      AppendJsonKey(name, &out);
      AppendJsonUint(c->Value(), &out);
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      AppendJsonKey(name, &out);
      AppendJsonDouble(g->Value(), &out);
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      AppendJsonKey(name, &out);
      out += " ";
      AppendHistogramJson(h->Snapshot(), &out);
    }
  }
  out += "\n  },\n  \"phases\": {";
  {
    bool first = true;
    for (const auto& [name, seconds] : GlobalPhaseTimer().totals()) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      AppendJsonKey(name, &out);
      AppendJsonDouble(seconds, &out);
    }
  }
  out += "\n  },\n  \"process\": {\n    \"rss_bytes\": ";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%zu", CurrentRssBytes());
  out += buf;
  out += ",\n    \"peak_rss_bytes\": ";
  std::snprintf(buf, sizeof(buf), "%zu", PeakRssBytes());
  out += buf;
  out += "\n  }\n}\n";
  return out;
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  std::ofstream os(path, std::ios::out | std::ios::trunc);
  if (!os.is_open()) {
    return Status::IoError("cannot open metrics output '" + path + "'");
  }
  os << SnapshotJson();
  os.flush();
  if (!os.good()) {
    return Status::IoError("failed writing metrics output '" + path + "'");
  }
  return Status::OK();
}

Counter& MetricCounter(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name);
}

Gauge& MetricGauge(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name);
}

Histogram& MetricHistogram(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name);
}

PhaseTimer& GlobalPhaseTimer() {
  static PhaseTimer* const kTimer = new PhaseTimer;
  return *kTimer;
}

}  // namespace dtucker
