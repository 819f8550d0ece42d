#include "obs/metrics.h"

#include <cstdlib>
#include <string>

#include "util/string_util.h"

namespace cspm::obs {

#ifndef CSPM_OBS_OFF
namespace internal {
// Live unless the CSPM_OBS_OFF environment variable is set (any value).
std::atomic<bool> g_enabled{std::getenv("CSPM_OBS_OFF") == nullptr};
}  // namespace internal
#endif

namespace internal {

unsigned AssignThreadShard() {
  static std::atomic<unsigned> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) %
         static_cast<unsigned>(kShards);
}

}  // namespace internal

namespace {

/// Lower bound of histogram bucket b (see Histogram::BucketIndex).
uint64_t BucketLow(std::size_t b) {
  return b == 0 ? 0 : uint64_t{1} << (b - 1);
}

/// Exclusive upper bound of bucket b.
uint64_t BucketHigh(std::size_t b) {
  return b == 0 ? 1 : uint64_t{1} << b;
}

/// Value at `rank` (0-based) given merged bucket counts: find the bucket
/// holding that rank and interpolate linearly inside it.
double QuantileFromBuckets(
    const std::array<uint64_t, kHistogramBuckets>& buckets, uint64_t rank) {
  uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (rank < seen + buckets[b]) {
      const double frac =
          (static_cast<double>(rank - seen) + 0.5) /
          static_cast<double>(buckets[b]);
      const auto low = static_cast<double>(BucketLow(b));
      const auto high = static_cast<double>(BucketHigh(b));
      return low + frac * (high - low);
    }
    seen += buckets[b];
  }
  return 0.0;
}

void AppendJsonNumber(std::string& out, double v) {
  // %.12g keeps DL-bit gauges exact to the displayed precision while
  // staying locale-independent and compact.
  out += StrFormat("%.12g", v);
}

}  // namespace

Histogram::Snapshot Histogram::Snap() const {
  std::array<uint64_t, kHistogramBuckets> merged{};
  Snapshot snap;
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      merged[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum_ns += shard.sum_ns.load(std::memory_order_relaxed);
  }
  for (uint64_t c : merged) snap.count += c;
  if (snap.count == 0) return snap;
  snap.min_ns = min_ns_.load(std::memory_order_relaxed);
  snap.max_ns = max_ns_.load(std::memory_order_relaxed);
  const auto rank = [&](double q) {
    return static_cast<uint64_t>(q * static_cast<double>(snap.count - 1));
  };
  const auto clamp = [&](double v) {
    const auto lo = static_cast<double>(snap.min_ns);
    const auto hi = static_cast<double>(snap.max_ns);
    return v < lo ? lo : (v > hi ? hi : v);
  };
  snap.p50_ns = clamp(QuantileFromBuckets(merged, rank(0.50)));
  snap.p90_ns = clamp(QuantileFromBuckets(merged, rank(0.90)));
  snap.p99_ns = clamp(QuantileFromBuckets(merged, rank(0.99)));
  return snap;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.sum_ns.store(0, std::memory_order_relaxed);
  }
  min_ns_.store(UINT64_MAX, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so metrics outlive every static destructor that might still
  // record during shutdown.
  static auto* registry = new MetricsRegistry();  // lint:allow naked-new
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  // Only the (name, metric) pointers are copied under the lock; the values
  // are read after it. Entries are never erased and map nodes never move,
  // so the pointers stay valid. A scrape thus holds the lock for a few
  // pointer copies, not for every histogram's percentile pass, and a
  // scrape loop cannot starve the GetHistogram call that ends each
  // TraceSpan.
  std::vector<std::pair<const std::string*, const Counter*>> counters;
  std::vector<std::pair<const std::string*, const Gauge*>> gauges;
  std::vector<std::pair<const std::string*, const Histogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      counters.emplace_back(&name, counter.get());
    }
    gauges.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
      gauges.emplace_back(&name, gauge.get());
    }
    histograms.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
      histograms.emplace_back(&name, histogram.get());
    }
  }
  Snapshot snap;
  snap.counters.reserve(counters.size());
  for (const auto& [name, counter] : counters) {
    snap.counters.emplace_back(*name, counter->Value());
  }
  snap.gauges.reserve(gauges.size());
  for (const auto& [name, gauge] : gauges) {
    snap.gauges.emplace_back(*name, gauge->Value());
  }
  snap.histograms.reserve(histograms.size());
  for (const auto& [name, histogram] : histograms) {
    snap.histograms.emplace_back(*name, histogram->Snap());
  }
  return snap;
}

std::string MetricsRegistry::SnapshotJson() const {
  const Snapshot snap = Snap();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%llu", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":", name.c_str());
    AppendJsonNumber(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "\"%s\":{\"count\":%llu,\"sum_ns\":%llu,\"min_ns\":%llu,"
        "\"max_ns\":%llu,",
        name.c_str(), static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.sum_ns),
        static_cast<unsigned long long>(h.min_ns),
        static_cast<unsigned long long>(h.max_ns));
    out += "\"p50_ns\":";
    AppendJsonNumber(out, h.p50_ns);
    out += ",\"p90_ns\":";
    AppendJsonNumber(out, h.p90_ns);
    out += ",\"p99_ns\":";
    AppendJsonNumber(out, h.p99_ns);
    out += '}';
  }
  out += "}}";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) entry.second->Reset();
  for (auto& entry : gauges_) entry.second->Reset();
  for (auto& entry : histograms_) entry.second->Reset();
}

}  // namespace cspm::obs
