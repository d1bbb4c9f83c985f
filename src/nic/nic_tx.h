// Transmit-side NIC model: TSO segmentation and per-packet priority marking.
//
// The transport hands the NIC whole TSO bursts (up to 64KB — the unit
// Presto load-balances, and the unit whose on-wire time sets the
// inseq_timeout rule of thumb in §5.2.1). The NIC cuts a burst into MTU
// packets, stamps each with the burst's tso_id (so per-TSO load balancers
// can keep flowcells together) and asks the optional marker for a priority
// per packet (the probabilistic marking of §2.1).

#ifndef JUGGLER_SRC_NIC_NIC_TX_H_
#define JUGGLER_SRC_NIC_NIC_TX_H_

#include <functional>
#include <string>

#include "src/net/packet_sink.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"

namespace juggler {

struct TsoBurst {
  FiveTuple flow;
  Seq seq = 0;
  uint32_t len = 0;  // payload bytes, <= kMaxTsoPayload
  uint8_t flags = kFlagAck;
  Seq ack_seq = 0;
  uint32_t ack_rwnd = 0;
  uint32_t options_token = 0;
  // Per-packet priority decision; null means Priority::kLow.
  const std::function<Priority()>* marker = nullptr;
};

struct NicTxStats {
  uint64_t bursts = 0;
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t acks = 0;
  // Frames shed because the packet pool was at its capacity cap (overload
  // policy: tail-drop at the NIC with a counter, never abort). TCP's normal
  // loss recovery — dupACKs, RTO — resends the payload once pressure lifts;
  // a dropped pure ACK is recovered by the next cumulative ACK.
  uint64_t pool_exhausted_drops = 0;
};

class NicTx {
 public:
  NicTx(EventLoop* loop, PacketFactory* factory, PacketSink* wire)
      : loop_(loop), factory_(factory), wire_(wire) {}

  // Segment `burst` into MTU packets and hand them to the wire back-to-back
  // (the wire link serializes them at its own rate).
  void SendBurst(const TsoBurst& burst);

  // Transmit one pure ACK (with optional SACK blocks and ECN echo).
  void SendAck(const FiveTuple& flow, Seq seq, Seq ack_seq, uint32_t rwnd, Priority priority,
               const SackBlocks& sack = {}, bool ece = false);

  const NicTxStats& stats() const { return stats_; }

  PacketFactory* factory() { return factory_; }

 private:
  EventLoop* loop_;
  PacketFactory* factory_;
  PacketSink* wire_;
  uint64_t next_tso_id_ = 1;
  NicTxStats stats_;
};

// Snapshot a NicTxStats into `registry` under `label` (e.g. "sender").
void PublishNicTxStats(const NicTxStats& stats, const std::string& label,
                       MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_NIC_NIC_TX_H_
