#include "common/metrics.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

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

// One histogram as a JSON object (times in nanoseconds). The raw bucket
// array rides along so offline tooling can re-derive any quantile.
void AppendHistogramJson(const HistogramData& h, const std::string& indent,
                         std::string* out) {
  out->append("{\n").append(indent).append("  \"count\": ");
  AppendJsonUint(h.Count(), out);
  out->append(",\n").append(indent).append("  \"sum\": ");
  AppendJsonUint(h.sum_ns, out);
  out->append(",\n").append(indent).append("  \"p50\": ");
  AppendJsonDouble(h.QuantileNs(0.50), out);
  out->append(",\n").append(indent).append("  \"p90\": ");
  AppendJsonDouble(h.QuantileNs(0.90), out);
  out->append(",\n").append(indent).append("  \"p99\": ");
  AppendJsonDouble(h.QuantileNs(0.99), out);
  out->append(",\n").append(indent).append("  \"max\": ");
  AppendJsonUint(h.max_ns, out);
  out->append(",\n").append(indent).append("  \"buckets\": [");
  for (unsigned b = 0; b < HistogramData::kBuckets; ++b) {
    if (b != 0) out->append(", ");
    AppendJsonUint(h.buckets[b], out);
  }
  out->append("]\n").append(indent).append("}");
}

bool NameIsMergeable(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return true;
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

void HistogramData::Merge(const HistogramData& other) {
  for (unsigned b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  sum_ns += other.sum_ns;
  if (other.max_ns > max_ns) max_ns = other.max_ns;
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
      AppendHistogramJson(h->Snapshot(), "    ", &out);
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

std::string MetricsRegistry::SerializeForMerge() const {
  std::string out;
  out.reserve(1024);
  out += "v 1\n";
  char buf[40];
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) {
      if (!NameIsMergeable(name)) continue;
      out += "c ";
      out += name;
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", c->Value());
      out += buf;
    }
    for (const auto& [name, g] : gauges_) {
      if (!NameIsMergeable(name)) continue;
      out += "g ";
      out += name;
      std::snprintf(buf, sizeof(buf), " %.17g\n", g->Value());
      out += buf;
    }
    for (const auto& [name, h] : histograms_) {
      if (!NameIsMergeable(name)) continue;
      const HistogramData data = h->Snapshot();
      out += "h ";
      out += name;
      std::snprintf(buf, sizeof(buf), " %" PRIu64 " %" PRIu64, data.sum_ns,
                    data.max_ns);
      out += buf;
      for (unsigned b = 0; b < HistogramData::kBuckets; ++b) {
        std::snprintf(buf, sizeof(buf), " %" PRIu64, data.buckets[b]);
        out += buf;
      }
      out += "\n";
    }
  }
  for (const auto& [name, seconds] : GlobalPhaseTimer().totals()) {
    if (!NameIsMergeable(name)) continue;
    out += "p ";
    out += name;
    std::snprintf(buf, sizeof(buf), " %.17g\n", seconds);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "x %zu %zu\n", CurrentRssBytes(),
                PeakRssBytes());
  out += buf;
  return out;
}

namespace {

// Parsed form of one rank's SerializeForMerge() dump.
struct RankMetrics {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
  std::map<std::string, double> phases;
  std::uint64_t rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
};

RankMetrics ParseRankDump(const std::string& dump) {
  RankMetrics out;
  std::istringstream is(dump);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind == "c") {
      std::string name;
      std::uint64_t v = 0;
      if (ls >> name >> v) out.counters[name] = v;
    } else if (kind == "g") {
      std::string name;
      double v = 0;
      if (ls >> name >> v) out.gauges[name] = v;
    } else if (kind == "p") {
      std::string name;
      double v = 0;
      if (ls >> name >> v) out.phases[name] = v;
    } else if (kind == "h") {
      std::string name;
      HistogramData h;
      if (!(ls >> name >> h.sum_ns >> h.max_ns)) continue;
      bool ok = true;
      for (unsigned b = 0; b < HistogramData::kBuckets; ++b) {
        if (!(ls >> h.buckets[b])) {
          ok = false;
          break;
        }
      }
      if (ok) out.histograms[name] = h;
    } else if (kind == "x") {
      ls >> out.rss_bytes >> out.peak_rss_bytes;
    }
  }
  return out;
}

struct Rollup {
  double min = 0;
  double max = 0;
  double sum = 0;
  bool seen = false;

  void Fold(double v) {
    if (!seen) {
      min = max = sum = v;
      seen = true;
      return;
    }
    if (v < min) min = v;
    if (v > max) max = v;
    sum += v;
  }
};

void AppendRollupSection(const std::map<std::string, Rollup>& rollups,
                         std::string* out) {
  bool first = true;
  for (const auto& [name, r] : rollups) {
    out->append(first ? "\n      " : ",\n      ");
    first = false;
    AppendJsonKey(name, out);
    out->append(" {\"min\": ");
    AppendJsonDouble(r.min, out);
    out->append(", \"max\": ");
    AppendJsonDouble(r.max, out);
    out->append(", \"sum\": ");
    AppendJsonDouble(r.sum, out);
    out->append("}");
  }
}

}  // namespace

std::string MergeRankMetricsJson(const std::vector<std::string>& rank_dumps) {
  std::vector<RankMetrics> ranks;
  ranks.reserve(rank_dumps.size());
  for (const std::string& dump : rank_dumps) {
    ranks.push_back(ParseRankDump(dump));
  }

  std::string out;
  out.reserve(4096);
  out += "{\n  \"world_size\": ";
  AppendJsonUint(ranks.size(), &out);
  out += ",\n  \"ranks\": {";
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankMetrics& m = ranks[r];
    out += r == 0 ? "\n    " : ",\n    ";
    AppendJsonKey(std::to_string(r), &out);
    out += " {\n      \"counters\": {";
    bool first = true;
    for (const auto& [name, v] : m.counters) {
      out += first ? "\n        " : ",\n        ";
      first = false;
      AppendJsonKey(name, &out);
      AppendJsonUint(v, &out);
    }
    out += "\n      },\n      \"gauges\": {";
    first = true;
    for (const auto& [name, v] : m.gauges) {
      out += first ? "\n        " : ",\n        ";
      first = false;
      AppendJsonKey(name, &out);
      AppendJsonDouble(v, &out);
    }
    out += "\n      },\n      \"histograms\": {";
    first = true;
    for (const auto& [name, h] : m.histograms) {
      out += first ? "\n        " : ",\n        ";
      first = false;
      AppendJsonKey(name, &out);
      out += " ";
      AppendHistogramJson(h, "        ", &out);
    }
    out += "\n      },\n      \"phases\": {";
    first = true;
    for (const auto& [name, v] : m.phases) {
      out += first ? "\n        " : ",\n        ";
      first = false;
      AppendJsonKey(name, &out);
      AppendJsonDouble(v, &out);
    }
    out += "\n      },\n      \"process\": {\n        \"rss_bytes\": ";
    AppendJsonUint(m.rss_bytes, &out);
    out += ",\n        \"peak_rss_bytes\": ";
    AppendJsonUint(m.peak_rss_bytes, &out);
    out += "\n      }\n    }";
  }

  std::map<std::string, Rollup> counter_rollup;
  std::map<std::string, Rollup> gauge_rollup;
  std::map<std::string, Rollup> phase_rollup;
  std::map<std::string, HistogramData> histogram_rollup;
  for (const RankMetrics& m : ranks) {
    for (const auto& [name, v] : m.counters) {
      counter_rollup[name].Fold(static_cast<double>(v));
    }
    for (const auto& [name, v] : m.gauges) gauge_rollup[name].Fold(v);
    for (const auto& [name, v] : m.phases) phase_rollup[name].Fold(v);
    for (const auto& [name, h] : m.histograms) {
      histogram_rollup[name].Merge(h);
    }
  }

  out += "\n  },\n  \"rollup\": {\n    \"counters\": {";
  AppendRollupSection(counter_rollup, &out);
  out += "\n    },\n    \"gauges\": {";
  AppendRollupSection(gauge_rollup, &out);
  out += "\n    },\n    \"phases\": {";
  AppendRollupSection(phase_rollup, &out);
  out += "\n    },\n    \"histograms\": {";
  bool first = true;
  for (const auto& [name, h] : histogram_rollup) {
    out += first ? "\n      " : ",\n      ";
    first = false;
    AppendJsonKey(name, &out);
    out += " ";
    AppendHistogramJson(h, "      ", &out);
  }
  out += "\n    }\n  }\n}\n";
  return out;
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
