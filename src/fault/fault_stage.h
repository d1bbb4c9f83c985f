// Deterministic, composable packet fault injection.
//
// A FaultStage sits anywhere a PacketSink fits (typically just before the
// receiving NIC) and subjects passing packets to the fault classes real
// datacenter receive paths see:
//
//   * independent drops and multi-packet drop bursts (switch buffer overrun,
//     brief route withdrawal),
//   * duplication (spanning-tree transients, NIC replays),
//   * payload/header corruption and frame truncation — the packet is marked
//     `corrupted` and discarded by the receiving NIC's checksum validation,
//     so the stack observes only the loss, as on real hardware,
//   * delay spikes (PFC pauses, deep-buffer excursions) that reorder the
//     packet past its successors.
//
// Faults are driven by a declarative FaultTimeline: time-windowed
// FaultProfiles, so pathologies can flare and subside mid-run. Determinism
// contract: every decision draws from the stage's own named, seeded Rng in a
// fixed per-packet order, so the same seed + timeline + arrival sequence
// reproduces the exact same fault pattern.

#ifndef JUGGLER_SRC_FAULT_FAULT_STAGE_H_
#define JUGGLER_SRC_FAULT_FAULT_STAGE_H_

#include <limits>
#include <string>
#include <vector>

#include "src/net/packet_sink.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace juggler {

// Fault intensities active within one timeline window. All probabilities are
// per-packet Bernoulli trials; zero disables that fault class.
struct FaultProfile {
  double drop_prob = 0.0;      // independent single-packet drop
  double burst_prob = 0.0;     // probability a packet *starts* a drop burst
  int burst_len_min = 2;       // burst length drawn uniformly from this range
  int burst_len_max = 8;       // (includes the triggering packet)
  double dup_prob = 0.0;       // deliver the packet and an identical copy
  double corrupt_prob = 0.0;   // payload/header corruption -> NIC discards
  double truncate_prob = 0.0;  // frame truncation -> bad FCS -> NIC discards
  double delay_prob = 0.0;     // hold the packet for a delay spike
  TimeNs delay_min = Us(50);
  TimeNs delay_max = Us(500);

  bool any() const {
    return drop_prob > 0 || burst_prob > 0 || dup_prob > 0 || corrupt_prob > 0 ||
           truncate_prob > 0 || delay_prob > 0;
  }
};

// A declarative schedule of fault windows. Windows are [start, end) in
// simulation time; the *last* window containing `now` wins, so a broad
// background profile can be overlaid with sharper episodes.
class FaultTimeline {
 public:
  struct Window {
    TimeNs start = 0;
    TimeNs end = std::numeric_limits<TimeNs>::max();
    FaultProfile profile;
  };

  FaultTimeline() = default;

  // A single window covering all of time.
  static FaultTimeline Always(const FaultProfile& profile) {
    FaultTimeline t;
    t.Add(0, std::numeric_limits<TimeNs>::max(), profile);
    return t;
  }

  void Add(TimeNs start, TimeNs end, const FaultProfile& profile) {
    windows_.push_back(Window{start, end, profile});
  }

  // The profile in force at `now`, or nullptr when no window covers it.
  const FaultProfile* ActiveAt(TimeNs now) const {
    const FaultProfile* active = nullptr;
    for (const Window& w : windows_) {
      if (now >= w.start && now < w.end) {
        active = &w.profile;
      }
    }
    return active;
  }

  bool empty() const { return windows_.empty(); }
  const std::vector<Window>& windows() const { return windows_; }

 private:
  std::vector<Window> windows_;
};

struct FaultStats {
  uint64_t packets_in = 0;
  uint64_t drops = 0;        // all dropped packets (independent + burst)
  uint64_t burst_drops = 0;  // subset of drops belonging to a burst
  uint64_t bursts_started = 0;
  uint64_t duplicates = 0;
  // Duplication faults skipped because the packet pool was at its capacity
  // cap (overload policy: shed the duplicate, forward the original).
  uint64_t dup_pool_exhausted = 0;
  uint64_t corruptions = 0;
  uint64_t truncations = 0;
  uint64_t delayed = 0;
  uint64_t passed = 0;  // forwarded immediately (corrupt-marked or not)
};

class FaultStage : public PacketSink {
 public:
  FaultStage(EventLoop* loop, std::string name, FaultTimeline timeline, uint64_t seed,
             PacketSink* sink);

  void Accept(PacketPtr packet) override;

  // Optional flight recorder: every applied fault emits a TraceKind::kFault
  // event. Null (the default) keeps tracing off the fault path.
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  const FaultStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

 private:
  // Trace hook: one line per applied fault, gated on recorder_.
  void Trace(int code, const Packet& p) {
    if (recorder_ != nullptr) {
      recorder_->Record(loop_->now(), TraceKind::kFault, static_cast<uint64_t>(code), p.seq,
                        p.payload_len);
    }
  }

  EventLoop* loop_;
  std::string name_;
  FaultTimeline timeline_;
  Rng rng_;
  PacketSink* sink_;
  FlightRecorder* recorder_ = nullptr;
  int burst_remaining_ = 0;
  FaultStats stats_;
};

// Snapshot a FaultStats into `registry` under `label` (the stage's name).
void PublishFaultStats(const FaultStats& stats, const std::string& label,
                       MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_FAULT_FAULT_STAGE_H_
