#include "src/obs/metrics.h"

#include <algorithm>

#include "src/stats/table_printer.h"

namespace juggler {

void MetricsRegistry::AddCounter(const std::string& family, const std::string& label,
                                 uint64_t delta) {
  counters_[{family, label}] += delta;
}

void MetricsRegistry::SetGauge(const std::string& family, const std::string& label,
                               uint64_t value) {
  gauges_[{family, label}] = value;
}

void MetricsRegistry::MaxGauge(const std::string& family, const std::string& label,
                               uint64_t value) {
  uint64_t& slot = gauges_[{family, label}];
  slot = std::max(slot, value);
}

void MetricsRegistry::RecordHistogram(const std::string& family, const std::string& label,
                                      const Log2Histogram& h) {
  histograms_[{family, label}].MergeFrom(h);
}

uint64_t MetricsRegistry::CounterValue(const std::string& family, const std::string& label,
                                       uint64_t fallback) const {
  auto it = counters_.find({family, label});
  return it == counters_.end() ? fallback : it->second;
}

uint64_t MetricsRegistry::GaugeValue(const std::string& family, const std::string& label,
                                     uint64_t fallback) const {
  auto it = gauges_.find({family, label});
  return it == gauges_.end() ? fallback : it->second;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [key, v] : other.counters_) counters_[key] += v;
  for (const auto& [key, v] : other.gauges_) {
    uint64_t& slot = gauges_[key];
    slot = std::max(slot, v);
  }
  for (const auto& [key, h] : other.histograms_) histograms_[key].MergeFrom(h);
}

namespace {

std::string JoinKey(const MetricsRegistry::Key& key) {
  return key.second.empty() ? key.first : key.first + "/" + key.second;
}

}  // namespace

Json MetricsRegistry::ToJson() const {
  Json out = Json::Object();
  Json counters = Json::Object();
  for (const auto& [key, v] : counters_) counters.Set(JoinKey(key), Json::Uint(v));
  Json gauges = Json::Object();
  for (const auto& [key, v] : gauges_) gauges.Set(JoinKey(key), Json::Uint(v));
  Json histos = Json::Object();
  for (const auto& [key, h] : histograms_) {
    Json entry = Json::Object();
    entry.Set("count", Json::Uint(h.count));
    entry.Set("sum", Json::Uint(h.sum));
    int last = -1;
    for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
      if (h.buckets[i] != 0) last = i;
    }
    Json buckets = Json::Array();
    for (int i = 0; i <= last; ++i) buckets.Push(Json::Uint(h.buckets[i]));
    entry.Set("buckets", std::move(buckets));
    histos.Set(JoinKey(key), std::move(entry));
  }
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(histos));
  return out;
}

std::string MetricsRegistry::ToTable() const {
  TablePrinter table({"metric", "kind", "value"});
  for (const auto& [key, v] : counters_) {
    table.AddRow({JoinKey(key), "counter", std::to_string(v)});
  }
  for (const auto& [key, v] : gauges_) {
    table.AddRow({JoinKey(key), "gauge", std::to_string(v)});
  }
  for (const auto& [key, h] : histograms_) {
    table.AddRow({JoinKey(key), "histogram",
                  "n=" + std::to_string(h.count) + " sum=" + std::to_string(h.sum)});
  }
  return table.ToString();
}

}  // namespace juggler
