// The receive-path core every NIC RX driver is built on (Figure 2), plus the
// shared configuration and stats types.
//
// RxDriver owns what every receive architecture shares, modelled once:
//
//  * Ring admission: checksum/FCS validation, the ring cap (tail drop), the
//    rx timestamp and the ring high watermark.
//  * Interrupt moderation: interrupts are rate-limited to one per
//    `int_coalesce` per ring. At line rate this batches ~100 packets per
//    interrupt (the "interrupt coalescing acts as an additional reordering
//    buffer" effect behind the τ−τ₀ thresholds of Figs. 13/14); at low load
//    the first packet fires immediately, so RPC latency is not inflated.
//    While the driver is already polling a ring, arrivals raise none.
//  * The GRO stage: a poll round's harvest goes to the ring's GroEngine as
//    one batch, then the engine's PollComplete() — "GRO's batching interval
//    is the same as the driver's polling interval". Driver + GRO costs are
//    charged to the ring's RX core and merged segments reach the host only
//    after that work completes, so RX-core saturation delays delivery (and
//    ring overflow drops packets). The engine's high-resolution timer and
//    flow-cap pressure run through the same RX-core path.
//
// Two drivers differ only in how ring packets reach the GRO stage:
//
//  * NicRx (rx_driver = kRss): RSS steering over multi-queue rings and the
//    NAPI poll loop (nic_rx.h) — the paper's testbed model.
//  * CorecRx (rx_driver = kCorec): a COREC-style concurrent non-blocking
//    single-queue driver (corec_rx.h) — one shared descriptor ring, per-
//    consumer claim/commit windows that may complete out of order, and an
//    in-order hand-off of each completed run to the GRO stage.
//
// The seam exists so the chaos/fuzz/overload matrices can run every stack
// against every receive architecture and assert the TCP-level stream is
// byte-identical — the driver axis is a regression oracle, not a demo.

#ifndef JUGGLER_SRC_NIC_RX_DRIVER_H_
#define JUGGLER_SRC_NIC_RX_DRIVER_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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
  uint64_t napi_budget_exhausted = 0;   // poll rounds that hit the NAPI budget
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

// The shared receive-path core. Owns the rings, the RX cores and the GRO
// engine(s), accepts packets from the wire, and delivers merged segments to
// `sink` after charging driver + GRO costs to an RX core. A driver supplies
// only what happens between the interrupt and the GRO stage.
class RxDriver : public PacketSink {
 public:
  using GroFactory = std::function<std::unique_ptr<GroEngine>(const CpuCostModel*)>;

  ~RxDriver() override = default;

  // Packet arriving from the wire: ring admission, then the moderated
  // interrupt.
  void Accept(PacketPtr packet) final;

  size_t num_queues() const { return queues_.size(); }
  // The core a ring's GRO stage is charged to: merged segments leave on its
  // clock, which is what callers (overload auditor, tests) use it for.
  CpuCore* rx_core(size_t q) { return &queues_[q]->core; }
  GroEngine* gro(size_t q) { return queues_[q]->gro.get(); }
  const NicRxStats& stats() const { return stats_; }
  // Sum of GRO stats across queues.
  GroStats TotalGroStats() const;
  const NicRxConfig& config() const { return config_; }

  // Overload-resilience knobs (memory brown-outs shrink these mid-run).
  // Shrinking the ring does not evict already-queued packets; it only tail-
  // drops new arrivals until the driver drains under the new cap.
  void set_ring_capacity(size_t capacity) {
    config_.ring_capacity = capacity < 1 ? 1 : capacity;
  }

  // Propagate a flow-table pressure cap to every GRO engine, through the RX
  // cores (same path as GRO timers) so evicted segments are delivered and
  // charged exactly like any other GRO work.
  void ApplyGroFlowCap(size_t max_flows);

  // Non-null only for the COREC driver.
  virtual const CorecRxStats* corec_stats() const { return nullptr; }

 protected:
  // One ring and the GRO stage behind it. Each queue is its engine's
  // GroHost: deliveries buffer into `pending_segments` until the RX-core
  // work that produced them completes.
  struct RxQueue : public GroHost {
    RxDriver* driver;
    size_t index;
    std::deque<PacketPtr> ring;
    std::unique_ptr<GroEngine> gro;
    CpuCore core;
    std::vector<Segment> pending_segments;  // collected during a GRO call
    TimeNs last_interrupt = -(1LL << 60);   // long ago: first packet fires now
    bool interrupt_pending = false;
    // The driver is draining this ring without interrupts (a NAPI session, a
    // busy COREC consumer), so arrivals raise none.
    bool polling = false;
    TimerId gro_timer = kInvalidTimerId;

    RxQueue(RxDriver* d, size_t i)
        : driver(d), index(i), core(d->loop_, "rx_core_" + std::to_string(i)) {}

    void GroDeliver(Segment segment) override {
      pending_segments.push_back(std::move(segment));
    }
    void GroArmTimer(TimeNs when) override;
  };

  RxDriver(EventLoop* loop, const CpuCostModel* costs, const NicRxConfig& config,
           const GroFactory& gro_factory, SegmentSink* sink, size_t num_queues);

  // The ring an admitted packet joins (one shared ring unless overridden).
  virtual size_t Steer(const Packet&) const { return 0; }
  // q's moderated interrupt fired: start draining its ring.
  virtual void OnInterrupt(RxQueue* q) = 0;
  // A GRO round on q has been charged and its segments delivered.
  virtual void OnRoundDelivered(RxQueue*) {}

  // Arm q's interrupt no sooner than `int_coalesce` after its last one,
  // unless the driver is polling q or an interrupt is already armed.
  void ScheduleInterrupt(RxQueue* q);
  // Hand one poll round's harvest, in ring order, to q's engine and return
  // the engine's cost.
  TimeNs GroReceive(RxQueue* q, PacketPtr* packets, size_t count);
  // Close q's poll round with the engine's PollComplete() (flush decisions,
  // timeout checks) and charge `cost` plus its cost to q's RX core; the
  // round's segments reach the sink when that work completes.
  void CompleteGroRound(RxQueue* q, TimeNs cost);

  EventLoop* loop_;
  const CpuCostModel* costs_;
  NicRxConfig config_;
  NicRxStats stats_;
  std::vector<std::unique_ptr<RxQueue>> queues_;

 private:
  void FireInterrupt(RxQueue* q);
  // Run `work` (an engine call returning its cost) on q's RX core, then
  // deliver what it flushed once that cost is paid.
  template <typename Work>
  void SubmitGroWork(RxQueue* q, Work work);
  void DeliverPending(RxQueue* q);

  SegmentSink* sink_;
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
