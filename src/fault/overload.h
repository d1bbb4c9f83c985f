// Overload fault family + auditor: drive the stack to its resource limits
// and prove it degrades instead of dying.
//
// Three kinds of pressure, applied in timed windows (the same windowing idiom
// as FaultTimeline / link flaps):
//
//   kIncast   — synchronized bursts from a fixed set of ephemeral flows slam
//               the receiver's NIC ring and RX core (the many-senders,
//               one-receiver pattern; COREC's receive-side exhaustion).
//   kChurn    — every burst uses *fresh* five-tuples, so GRO flow tables see
//               a creation/eviction storm instead of queue pressure (§3.3's
//               state-exhaustion concern, aimed at the gro_table cap).
//   kBrownout — no traffic of its own: the window shrinks the capacity caps
//               (packet pool, NIC ring, GRO flow budget) to a percentage of
//               nominal mid-run and restores them at window end, so the
//               regular workload itself runs into the walls.
//
// Hard overload policy everywhere: refuse + count, never abort. The refusal
// points are exactly the TryAcquire callers — NicTx (data + ACK tail drops),
// FaultStage duplication, this driver's own injector, and the sharded
// engine's crossing arrivals — plus the NicRx ring cap and the GRO flow
// caps, each with its own counter, so the OverloadAuditor can check
// conservation: every refused allocation shows up in exactly one published
// drop counter.
//
// Determinism: the driver runs on the receiver-side event loop with fixed
// tuple/sequence schedules (no RNG), and a domain pool's packets never leave
// its domain, so pool occupancy moves only with that domain's own events.
// Every counter here — and therefore the chaos digest — is shard-count
// invariant.

#ifndef JUGGLER_SRC_FAULT_OVERLOAD_H_
#define JUGGLER_SRC_FAULT_OVERLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fault/audit_log.h"
#include "src/fault/fault_stage.h"
#include "src/nic/nic_rx.h"
#include "src/nic/nic_tx.h"
#include "src/obs/metrics.h"
#include "src/packet/packet.h"
#include "src/sim/event_loop.h"
#include "src/util/time.h"

namespace juggler {

enum class OverloadKind : int {
  kIncast = 0,
  kChurn = 1,
  kBrownout = 2,
};

const char* OverloadKindName(OverloadKind kind);
bool ParseOverloadKind(const std::string& name, OverloadKind* out);

// One timed pressure window. Injection fields apply to incast/churn; cap_pct
// applies to brown-outs.
struct OverloadWindow {
  TimeNs start = 0;
  TimeNs end = 0;
  OverloadKind kind = OverloadKind::kIncast;
  // Tuples per burst. Incast reuses the same tuples every burst (sequence
  // numbers advance, so GRO merges per-flow); churn draws fresh ones.
  uint32_t flows = 64;
  uint32_t packets_per_flow = 4;  // MTUs injected per tuple per burst
  TimeNs burst_interval = Us(200);
  // Brown-out severity: caps shrink to this percent of nominal (floor 1).
  uint32_t cap_pct = 25;

  bool operator==(const OverloadWindow&) const = default;
};

struct OverloadStats {
  uint64_t windows_started = 0;
  uint64_t windows_ended = 0;
  uint64_t bursts = 0;
  uint64_t injected_packets = 0;
  // Injections refused because the (capped) receiver pool was exhausted —
  // the storm itself is subject to the same overload policy it provokes.
  uint64_t inject_alloc_drops = 0;
  uint64_t churn_tuples = 0;  // distinct fresh tuples used by churn windows
  uint64_t brownouts = 0;
  uint64_t cap_restores = 0;
};

// Everything the driver and auditor touch, gathered by the chaos harness.
// All pointers are borrowed and must outlive both objects.
struct OverloadWiring {
  // Receiver-side loop: windows, bursts and cap changes are scheduled here,
  // so in sharded runs every mutation happens on the thread that owns the
  // receiver domain (no cross-thread cap writes).
  EventLoop* loop = nullptr;
  PacketSink* inject = nullptr;       // receiver NIC ingress (wire_in)
  PacketFactory* factory = nullptr;   // receiver-side factory
  RxDriver* receiver_nic = nullptr;
  const NicTxStats* sender_tx = nullptr;
  const NicTxStats* receiver_tx = nullptr;
  const FaultStats* fault = nullptr;  // optional (null = no fault stage)
  // Every pool the run allocates from; all are capped at pool_capacity for
  // the run. brownout_pool (an element of pools) is the one brown-out
  // windows shrink mid-run: the receiver-owned pool, so the shrink happens
  // on the thread that acquires from it.
  std::vector<PacketPool*> pools;
  PacketPool* brownout_pool = nullptr;
  uint32_t target_ip = 0;      // injected packets' destination
  size_t pool_capacity = 0;    // nominal cap applied to every pool (0 = none)
  size_t ring_capacity = 0;    // nominal ring cap (0 = keep NicRx config)
  size_t gro_flow_cap = 0;     // nominal GRO flow budget (for brown-out math)
  // The forward-progress signal the auditor watches for deadlock, read
  // between engine steps: total executed events across all loops/domains,
  // and whether any loop still has an event pending.
  struct Progress {
    uint64_t executed_events = 0;
    bool event_pending = false;
  };
  std::function<Progress()> progress;
  // Crossing arrivals the engine shed because a capped domain pool refused
  // them (ShardedEngineStats::crossing_drops), read at FinalCheck; null when
  // the run has no engine.
  std::function<uint64_t()> crossing_drops;
};

// Schedules the pressure windows and applies the capacity caps. Construct,
// then Start() once before the run loop. The caps stay on the wired pools,
// which the run owns.
class OverloadDriver {
 public:
  OverloadDriver(std::vector<OverloadWindow> windows, const OverloadWiring& wiring);

  void Start();

  const OverloadStats& stats() const { return stats_; }
  // Latest pressure-window end, or 0 when no windows are configured.
  TimeNs pressure_end() const;

 private:
  void BeginWindow(size_t index);
  void EndWindow(size_t index);
  void Burst(size_t index, uint64_t burst_index);
  void InjectOne(const FiveTuple& tuple, Seq seq);

  std::vector<OverloadWindow> windows_;
  OverloadWiring wiring_;
  OverloadStats stats_;
  size_t nominal_ring_ = 0;
  uint32_t next_churn_ip_ = 0;
  bool started_ = false;
};

// Asserts the overload invariants without stopping the run: probes are taken
// from the main thread between engine steps (every loop quiescent), the
// final check after the drain. Violations land in the shared AuditLog and
// therefore in the chaos result/digest. The audit reads the wired pools',
// NICs' and fault stage's raw counters, so wire it to ones created for the
// run, before the run's first send.
class OverloadAuditor {
 public:
  OverloadAuditor(std::string name, const OverloadWiring& wiring,
                  const std::vector<OverloadWindow>& windows, AuditLog* log);

  // Between-steps probe. `now` is the engine horizon just reached; `bytes`
  // the primary transfer's delivered byte count.
  void Probe(TimeNs now, uint64_t bytes);

  // After the run loop + drain. `transfer_complete` is the run's own success
  // oracle (raw byte transfer finished / app workload finished).
  void FinalCheck(TimeNs now, uint64_t bytes, bool transfer_complete,
                  const OverloadStats& driver);

  // Registry snapshot of the audited quantities (identical across shard
  // counts).
  void Publish(MetricsRegistry* registry) const;

  uint64_t probes() const { return probes_; }
  uint64_t peak_outstanding() const { return peak_outstanding_; }
  uint64_t pool_exhausted() const;

  // Packets still outstanding across the wired pools, after the caller has
  // torn down all packet-holding state (ShardedEngine::ReleaseResidualPackets).
  // Anything nonzero is a leak — storage the stack lost track of.
  uint64_t MeasureLeakedPackets() const;

  // Pool occupancy must end at or under this once the transfer completed.
  static constexpr uint64_t kRecoveryWatermark = 256;

 private:
  uint64_t Outstanding() const;
  // Folds the wired pools' occupancy high watermarks into peak_outstanding_
  // and checks them against the cap. The pools keep the marks as packets
  // are acquired, so a storm that drains between two probes still counts.
  void ReadPeak();

  std::string name_;
  OverloadWiring wiring_;
  AuditLog* log_;
  TimeNs pressure_end_ = 0;
  uint64_t probes_ = 0;
  uint64_t peak_outstanding_ = 0;
  uint64_t final_outstanding_ = 0;
  uint64_t final_exhausted_ = 0;
  uint64_t last_events_ = 0;
  uint64_t stall_probes_ = 0;  // consecutive probes with no events and no bytes
  TimeNs last_probe_now_ = -1;
  uint64_t last_bytes_ = 0;
  uint64_t bytes_at_recovery_start_ = 0;
  bool recovery_started_ = false;
  bool recovery_proven_ = false;
};

// Registry snapshot of the driver's counters under `label`.
void PublishOverloadStats(const OverloadStats& stats, const std::string& label,
                          MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_FAULT_OVERLOAD_H_
