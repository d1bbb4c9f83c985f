// Per-layer metrics: counters, gauges and log2-bucket histograms keyed by
// (family, label). Zero overhead when disabled: nothing on the datapath
// touches a registry — each layer keeps its existing plain-uint64 stats
// struct and a free Publish*Stats() function snapshots those counters into
// the registry after the run (for the sharded engine, after the workers have
// joined, so the registry itself never needs atomics and stays TSan-clean).
//
// Determinism: the registry stores entries in ordered maps and serializes
// through src/util/json (ordered members), so ToJson().Dump() is
// byte-identical for identical metric values — the property the shard
// invariance tests assert across --shards={1,2,8}.

#ifndef JUGGLER_SRC_OBS_METRICS_H_
#define JUGGLER_SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "src/util/json.h"

namespace juggler {

// Fixed-size power-of-two histogram: value v lands in bucket 0 when v == 0,
// otherwise bucket 1 + floor(log2(v)) (so bucket 1 is [1,1], bucket 2 is
// [2,3], bucket 3 is [4,7], ...). POD-cheap enough to embed always-on in a
// datapath stage (one branch, one increment, one add per sample).
struct Log2Histogram {
  static constexpr int kBuckets = 64;

  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;

  void Record(uint64_t v) {
    int b = 0;
    if (v != 0) {
      b = 64 - __builtin_clzll(v);  // 1 + floor(log2 v)
      if (b >= kBuckets) b = kBuckets - 1;
    }
    ++buckets[b];
    ++count;
    sum += v;
  }

  void MergeFrom(const Log2Histogram& other) {
    for (int i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
  }
};

// Registry of labelled metrics. Families are dotted paths ("gro.flush"),
// labels distinguish instances within a family ("juggler/size_limit").
class MetricsRegistry {
 public:
  using Key = std::pair<std::string, std::string>;  // (family, label)

  // Counters accumulate across AddCounter calls (and MergeFrom).
  void AddCounter(const std::string& family, const std::string& label, uint64_t delta);
  // Gauges are last-write-wins; MaxGauge keeps the maximum seen instead.
  void SetGauge(const std::string& family, const std::string& label, uint64_t value);
  void MaxGauge(const std::string& family, const std::string& label, uint64_t value);
  void RecordHistogram(const std::string& family, const std::string& label,
                       const Log2Histogram& h);

  // Lookups for tests and report extraction; `fallback` when absent.
  uint64_t CounterValue(const std::string& family, const std::string& label,
                        uint64_t fallback = 0) const;
  uint64_t GaugeValue(const std::string& family, const std::string& label,
                      uint64_t fallback = 0) const;

  // Counters add, gauges take the max (they are high-watermarks here),
  // histograms merge bucketwise.
  void MergeFrom(const MetricsRegistry& other);

  bool empty() const { return counters_.empty() && gauges_.empty() && histograms_.empty(); }

  // Deterministic serialization: sorted by (family, label); histograms emit
  // count/sum plus only the trailing non-zero bucket prefix.
  Json ToJson() const;

  // Human dump through the stats table printer (family | label | value).
  std::string ToTable() const;

 private:
  std::map<Key, uint64_t> counters_;
  std::map<Key, uint64_t> gauges_;
  std::map<Key, Log2Histogram> histograms_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_OBS_METRICS_H_
