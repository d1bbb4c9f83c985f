// Receive-path driver seam: the abstract surface every NIC RX architecture
// implements, plus the shared configuration and stats types.
//
// Two drivers live behind this seam today:
//
//  * NicRx (rx_driver = kRss): RSS multi-queue rings + interrupt moderation +
//    the NAPI poll loop (nic_rx.h) — the paper's testbed model.
//  * CorecRx (rx_driver = kCorec): a COREC-style concurrent non-blocking
//    single-queue driver (corec_rx.h) — one shared descriptor ring, per-
//    consumer claim/commit windows that may complete out of order, and an
//    in-order hand-off stage that feeds the same batched GRO path.
//
// The seam exists so the chaos/fuzz/overload matrices can run every stack
// against every receive architecture and assert the TCP-level stream is
// byte-identical — the driver axis is a regression oracle, not a demo.

#ifndef JUGGLER_SRC_NIC_RX_DRIVER_H_
#define JUGGLER_SRC_NIC_RX_DRIVER_H_

#include <functional>
#include <memory>
#include <string>

#include "src/cpu/cost_model.h"
#include "src/cpu/cpu_core.h"
#include "src/gro/gro_engine.h"
#include "src/net/packet_sink.h"
#include "src/sim/event_loop.h"

namespace juggler {

// Receives merged segments from the NIC (still on the RX core clock); the
// host implementation forwards them to the app core and TCP.
class SegmentSink {
 public:
  virtual ~SegmentSink() = default;
  virtual void OnSegment(Segment segment) = 0;

  // Every segment one RX-core work item made visible, in delivery order.
  // Equivalent to OnSegment() on each in turn; hosts override to pay one
  // virtual hop per poll round instead of one per segment.
  virtual void OnSegmentBatch(Segment* segments, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      OnSegment(std::move(segments[i]));
    }
  }
};

// Which receive-path architecture a host instantiates.
enum class RxDriverKind {
  kRss = 0,    // RSS multi-queue + NAPI (NicRx)
  kCorec = 1,  // concurrent single-queue claim/commit driver (CorecRx)
};

const char* RxDriverKindName(RxDriverKind kind);
// Returns true and sets *out on "rss" / "corec"; false otherwise.
bool ParseRxDriverKind(const std::string& name, RxDriverKind* out);

struct NicRxConfig {
  // Driver architecture; every other knob below applies to both drivers
  // unless noted.
  RxDriverKind driver = RxDriverKind::kRss;
  size_t num_queues = 1;  // RSS only; COREC always has one shared ring
  // Minimum spacing between interrupts per queue (τ₀; 125µs in the paper's
  // testbed, §5.2.1).
  TimeNs int_coalesce = Us(125);
  size_t ring_capacity = 4096;
  // NAPI budget: packets per poll round. The engine's PollComplete (GRO
  // flush / timeout checks) runs at the end of every round, as the kernel's
  // polling loop does.
  size_t napi_budget = 64;
  // >= 0 forces all packets to one queue (the paper aims all flows at a
  // single RX queue in the CPU experiments); -1 uses RSS hashing. RSS only.
  int force_queue = -1;
  // Hand each poll round to the GRO engine packet-by-packet (Receive) instead
  // of as one batch (ReceiveBatch). The two must be observably identical —
  // same segments, costs, and stats — so this exists only as the reference
  // arm of determinism regression tests; leave it off everywhere else.
  bool per_packet_dispatch = false;
  // COREC: number of concurrent consumer cores claiming descriptor windows
  // off the shared ring.
  size_t corec_consumers = 4;
  // COREC: maximum descriptors one consumer claims per window. 32 keeps the
  // per-window bookkeeping amortized near RSS+NAPI's per-poll overhead (the
  // perf_core corec gate) while staying small enough that mixed-size windows
  // — and therefore genuine out-of-order commits — still occur under bursts.
  size_t corec_claim_window = 32;
  // COREC fault plant (tests/fuzzer only): the in-order hand-off stage
  // wedges permanently the first time it observes a completed slot parked
  // behind an incomplete head window — claimed packets are never handed to
  // GRO again, so the transfer stalls and the integrity auditors fire.
  bool debug_corec_wedge = false;
  // Optional flight recorder handed to the GRO engines and the interrupt
  // path; null leaves tracing off.
  FlightRecorder* recorder = nullptr;
};

struct NicRxStats {
  uint64_t packets_in = 0;
  uint64_t ring_drops = 0;
  uint64_t checksum_drops = 0;  // corrupted frames discarded at validation
  uint64_t interrupts = 0;
  uint64_t polls = 0;
  uint64_t coalesce_arms = 0;           // interrupt armed behind the τ₀ spacing
  uint64_t napi_budget_exhausted = 0;   // poll rounds that hit napi_budget
  uint64_t ring_high_watermark = 0;     // deepest any queue's ring ever got
};

// COREC-specific counters (claim/commit windows and the in-order hand-off).
struct CorecRxStats {
  uint64_t claims = 0;            // descriptor windows claimed by consumers
  uint64_t claimed_packets = 0;   // descriptors moved ring -> claim slots
  uint64_t commits = 0;           // windows committed (marked complete)
  uint64_t ooo_commits = 0;       // commits while an earlier window was open
  uint64_t handoff_runs = 0;      // contiguous completed runs handed to GRO
  uint64_t handoff_stalls = 0;    // hand-off blocked: completed slots behind
                                  // an incomplete head window
  uint64_t ooo_depth_max = 0;     // max completed slots parked behind a hole
  uint64_t claim_occupancy_hwm = 0;  // deepest the claim-slot window ever got
  uint64_t wedged = 0;            // 1 if the debug wedge plant fired
};

// Abstract receive-path driver. Owns the RX cores and the GRO engine(s),
// accepts packets from the wire, and delivers merged segments to `sink`
// after charging driver + GRO costs to an RX core.
class RxDriver : public PacketSink {
 public:
  using GroFactory = std::function<std::unique_ptr<GroEngine>(const CpuCostModel*)>;

  ~RxDriver() override = default;

  virtual size_t num_queues() const = 0;
  virtual CpuCore* rx_core(size_t q) = 0;
  virtual GroEngine* gro(size_t q) = 0;
  virtual const NicRxStats& stats() const = 0;
  // Sum of GRO stats across queues.
  virtual GroStats TotalGroStats() const = 0;
  virtual const NicRxConfig& config() const = 0;

  // Overload-resilience knobs (memory brown-outs shrink these mid-run).
  // Shrinking the ring does not evict already-queued packets; it only tail-
  // drops new arrivals until the driver drains under the new cap.
  virtual void set_ring_capacity(size_t capacity) = 0;

  // Propagate a flow-table pressure cap to every GRO engine, through the RX
  // cores (same path as GRO timers) so evicted segments are delivered and
  // charged exactly like any other GRO work.
  virtual void ApplyGroFlowCap(size_t max_flows) = 0;

  // Non-null only for the COREC driver.
  virtual const CorecRxStats* corec_stats() const { return nullptr; }
};

// Instantiate the driver named by `config.driver`.
std::unique_ptr<RxDriver> MakeRxDriver(EventLoop* loop, const CpuCostModel* costs,
                                       const NicRxConfig& config,
                                       const RxDriver::GroFactory& gro_factory,
                                       SegmentSink* sink);

// Snapshot a NicRxStats into `registry` under `label` (e.g. "receiver").
void PublishNicRxStats(const NicRxStats& stats, const std::string& label,
                       MetricsRegistry* registry);

// Snapshot the COREC claim/commit/hand-off counters. Like every Publish*,
// these feed the metrics registry only — never the run digest.
void PublishCorecRxStats(const CorecRxStats& stats, const std::string& label,
                         MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_NIC_RX_DRIVER_H_
