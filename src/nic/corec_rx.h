// COREC-style concurrent non-blocking single-queue RX driver (arXiv:2401.12815).
//
// Where the RSS model (nic_rx.h) gives each queue its own ring and one NAPI
// poller, COREC shares ONE descriptor ring among N concurrent consumer cores:
//
//   wire -> shared ring -> claim windows (N consumers, concurrent)
//        -> out-of-order completion slots -> in-order hand-off -> GRO -> host
//
//  * Claim: an idle consumer atomically claims up to `corec_claim_window`
//    contiguous descriptors off the ring head (a claim window). Claiming
//    charges the consumer core the NAPI entry/re-poll overhead plus the
//    per-packet driver cost for the window.
//  * Commit: when the consumer core finishes its window it commits — every
//    slot in the window is marked complete. Because windows have different
//    sizes (a consumer claims whatever is on the ring, capped at the window
//    limit), later-claimed smaller windows routinely finish before earlier
//    larger ones: commits are genuinely out of order.
//  * Hand-off: a dedicated hand-off stage walks the completion slots in ring
//    order and feeds each maximal contiguous completed run to the shared GRO
//    stage (rx_driver.h) as one poll round, on the hand-off core. Completed
//    slots parked behind an incomplete head window stall (counted; depth
//    recorded) until the head commits. This is the rule that makes the
//    driver conform: GRO sees packets in exactly the ring order, so the
//    TCP-level stream is byte-identical to the single-queue RSS driver for
//    every GRO stack.
//
// Determinism contract: consumers are ordinary `CpuCore` FIFOs on the shared
// event loop; claims are made in consumer-index order at interrupt/commit
// edges, so the whole claim/commit/hand-off schedule is a deterministic
// function of arrivals. Only flush-boundary timing differs from RSS — stream
// content and ordering do not.

#ifndef JUGGLER_SRC_NIC_COREC_RX_H_
#define JUGGLER_SRC_NIC_COREC_RX_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/nic/rx_driver.h"

namespace juggler {

class CorecRx : public RxDriver {
 public:
  CorecRx(EventLoop* loop, const CpuCostModel* costs, const NicRxConfig& config,
          const GroFactory& gro_factory, SegmentSink* sink);

  const CorecRxStats* corec_stats() const override { return &corec_stats_; }

 private:
  // One consumer: a CPU core that claims a window, processes it, commits.
  struct Consumer {
    CpuCore core;
    bool busy = false;
    uint64_t first_seq = 0;  // ring sequence of the window's first slot
    size_t count = 0;        // window size
    Consumer(EventLoop* loop, size_t i)
        : core(loop, "corec_consumer_" + std::to_string(i)) {}
  };

  // A claimed descriptor awaiting in-order hand-off.
  struct Slot {
    PacketPtr packet;
    bool done = false;
  };

  void OnInterrupt(RxQueue*) override { KickIdleConsumers(/*session_entry=*/true); }
  // Hand idle consumers claim windows, in consumer-index order, until the
  // ring is empty or every consumer is busy. `session_entry` charges the
  // interrupt-driven NAPI entry overhead instead of the re-poll overhead.
  void KickIdleConsumers(bool session_entry);
  void Claim(size_t consumer_index, bool session_entry);
  void Commit(size_t consumer_index);
  // Walk the completion slots from the head; queue each maximal contiguous
  // completed run for the GRO stage (one poll round per run).
  void Handoff();
  bool AnyConsumerBusy() const;

  // The one shared ring; its RX core is the hand-off core, where GRO runs
  // and merged segments leave.
  RxQueue* const shared_;
  std::vector<std::unique_ptr<Consumer>> consumers_;

  std::deque<Slot> slots_;   // claimed descriptors, ring order
  uint64_t slots_base_ = 0;  // ring sequence of slots_.front()
  uint64_t next_claim_seq_ = 0;

  CorecRxStats corec_stats_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_NIC_COREC_RX_H_
