// Per-run observability switchboard: ObsConfig selects what a run collects,
// ObsReport carries what it collected. Both are plumbed through
// ChaosOptions/ChaosEngineResult so every runner (chaos, replay, fuzz) and
// test sees the same shapes.

#ifndef JUGGLER_SRC_OBS_OBS_H_
#define JUGGLER_SRC_OBS_OBS_H_

#include <cstdint>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/util/json.h"

namespace juggler {

struct ObsConfig {
  bool metrics = false;  // snapshot per-layer stats into a MetricsRegistry
  bool trace = false;    // attach FlightRecorders to the datapath hooks
};

struct ObsReport {
  bool metrics_enabled = false;
  bool trace_enabled = false;
  MetricsRegistry metrics;
  std::vector<TraceEvent> events;  // merged, sorted by (time, shard, seq)
  uint64_t trace_dropped = 0;

  Json MetricsJson() const { return metrics.ToJson(); }
  Json TraceJson(const TraceNamer& namer) const {
    return TraceToJson(events, trace_dropped, namer);
  }
};

}  // namespace juggler

#endif  // JUGGLER_SRC_OBS_OBS_H_
