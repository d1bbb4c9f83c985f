// The Generic Receive Offload engine interface.
//
// A GroEngine sits where Figure 2 of the paper places GRO: the NAPI poll loop
// feeds it raw packets, and it delivers merged Segments up the stack. The
// interface mirrors the three entry points the kernel gives the layer:
//
//   Receive()      — one packet from the ring, inside a polling round
//   PollComplete() — the polling round finished (ring drained / budget hit)
//   OnTimer()      — the engine's high-resolution timer fired
//
// Each call returns the CPU cost (ns of RX-core time) the operation consumed;
// the NIC model charges that to the RX core so "core usage %" in the benches
// reflects what the engine actually did. Deliveries happen synchronously via
// the context's deliver callback; the NIC batches them behind the CPU charge.
//
// Engines are per-RX-queue objects, exactly as in the paper ("different RX
// queues operate independently and have their private data structures").

#ifndef JUGGLER_SRC_GRO_GRO_ENGINE_H_
#define JUGGLER_SRC_GRO_GRO_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/packet/packet.h"
#include "src/util/time.h"

namespace juggler {

// Why a segment was flushed up the stack — the rows of Table 2.
enum class FlushReason : int {
  kSeqBeforeNext = 0,   // likely retransmission
  kSizeLimit,           // merged segment reached 64KB
  kFlags,               // PSH/URG/SYN/FIN force delivery
  kMetaMismatch,        // TCP options / CE marks differ
  kInseqTimeout,        // in-sequence data held too long
  kOfoTimeout,          // missing packet presumed lost
  kPollEnd,             // standard GRO flush at poll completion
  kEviction,            // flow evicted from the gro_table
  kOutOfOrder,          // standard GRO: next packet not in sequence
  kPureAck,             // ACKs pass straight through
  kReasonCount,
};

const char* FlushReasonName(FlushReason reason);

struct GroStats {
  uint64_t packets_in = 0;
  uint64_t acks_in = 0;
  uint64_t data_packets_in = 0;
  uint64_t ooo_packets = 0;  // packets whose seq != the flow's expected next
  uint64_t segments_out = 0;
  uint64_t data_segments_out = 0;
  uint64_t mtus_out = 0;
  uint64_t evictions = 0;
  uint64_t flush_by_reason[static_cast<int>(FlushReason::kReasonCount)] = {};

  // Average MTUs per delivered data segment — the "batching extent" metric
  // of Figure 12.
  double AvgBatchingExtent() const {
    return data_segments_out == 0
               ? 0.0
               : static_cast<double>(mtus_out) / static_cast<double>(data_segments_out);
  }
};

// What a GRO engine asks of whatever hosts it (an RX queue, a test harness,
// a bench driver). A plain interface instead of per-callback std::functions:
// the engine calls through one vtable pointer and reads the clock with one
// load, which matters at one-to-several calls per received packet.
class GroHost {
 public:
  virtual ~GroHost() = default;

  // Hand a merged segment up the stack.
  virtual void GroDeliver(Segment segment) = 0;

  // Arm (or re-arm) the engine's single high-resolution timer at an
  // absolute time; GroEngine::kNoTimer disarms it. The host calls OnTimer()
  // when it fires.
  virtual void GroArmTimer(TimeNs when) = 0;
};

class GroEngine {
 public:
  struct Context {
    // The simulation clock (the NIC wires this to EventLoop::now_ptr();
    // harnesses point it at a local variable they advance by hand).
    const TimeNs* now = nullptr;
    // Receives deliveries and timer arm requests. Must outlive the engine.
    GroHost* host = nullptr;
    // Optional flight recorder for structured trace events; null means
    // tracing is off and the hooks reduce to one predictable branch.
    FlightRecorder* recorder = nullptr;
  };

  static constexpr TimeNs kNoTimer = -1;

  virtual ~GroEngine() = default;

  // Virtual so decorating engines (e.g. the fault layer's JugglerAuditor)
  // can interpose their own context around an inner engine's.
  virtual void set_context(Context ctx) { ctx_ = ctx; }

  // Process one packet. Ownership transfers to the engine.
  virtual TimeNs Receive(PacketPtr packet) = 0;

  // Process `count` packets harvested by one polling round, in array order.
  // MUST stay observably identical to calling Receive() on each packet in
  // turn — per-packet delivery order and trace events are digest-visible —
  // so overrides may only amortize dispatch overhead and prefetch flow
  // state ahead of use, never reorder or defer per-packet effects. Returns
  // the summed CPU cost.
  virtual TimeNs ReceiveBatch(PacketPtr* packets, size_t count) {
    TimeNs cost = 0;
    for (size_t i = 0; i < count; ++i) {
      cost += Receive(std::move(packets[i]));
    }
    return cost;
  }

  // A NAPI polling round completed.
  virtual TimeNs PollComplete() = 0;

  // The armed timer fired. Default: nothing (engines without timeouts).
  virtual TimeNs OnTimer() { return 0; }

  // Overload pressure: shrink the engine's flow-state budget to `max_flows`
  // and evict down to it now, flushing (never discarding) any held bytes.
  // Engines that keep persistent flow state override this with their own
  // eviction policy (Juggler uses the §4.3 order); engines whose state is
  // naturally bounded per poll round (standard/linked-list GRO clear their
  // tables at poll completion) keep the no-op. Returns the CPU cost of the
  // evictions, charged to the RX core like any other GRO work.
  virtual TimeNs ApplyFlowCapPressure(size_t max_flows) {
    (void)max_flows;
    return 0;
  }

  virtual std::string name() const = 0;

  const GroStats& stats() const { return stats_; }

 protected:
  TimeNs Now() const { return *ctx_.now; }

  void Deliver(Segment segment, FlushReason reason) {
    ++stats_.segments_out;
    ++stats_.flush_by_reason[static_cast<int>(reason)];
    if (segment.payload_len > 0) {
      ++stats_.data_segments_out;
      stats_.mtus_out += segment.mtu_count;
    }
    if (ctx_.recorder != nullptr) {
      ctx_.recorder->Record(Now(), TraceKind::kGroFlush, static_cast<uint64_t>(reason),
                            segment.payload_len, segment.flow.Hash());
    }
    ctx_.host->GroDeliver(std::move(segment));
  }

  void ArmTimer(TimeNs when) {
    if (ctx_.host != nullptr) {
      ctx_.host->GroArmTimer(when);
    }
  }

  // Common fast path for packets GRO never merges (pure ACKs, SYN/FIN).
  // Returns true if the packet was handled. Inline: engines call this once
  // per received packet before anything else.
  bool DeliverDirectIfUnmergeable(PacketPtr& packet) {
    if (packet->is_pure_ack()) {
      ++stats_.acks_in;
      Deliver(ToSegment(*packet), FlushReason::kPureAck);
      return true;
    }
    if ((packet->flags & (kFlagSyn | kFlagFin)) != 0) {
      Deliver(ToSegment(*packet), FlushReason::kFlags);
      return true;
    }
    return false;
  }

  // Converts a single packet into a one-MTU segment.
  static Segment ToSegment(const Packet& p) {
    Segment s;
    s.flow = p.flow;
    s.seq = p.seq;
    s.payload_len = p.payload_len;
    s.mtu_count = p.payload_len > 0 ? 1 : 0;
    s.flags = p.flags;
    s.ack_seq = p.ack_seq;
    s.ack_rwnd = p.ack_rwnd;
    s.sack = p.sack;
    s.ece = p.ece;
    s.ce_mark = p.ce_mark;
    s.first_rx_time = p.nic_rx_time;
    s.last_rx_time = p.nic_rx_time;
    s.sent_time = p.sent_time;
    return s;
  }

  Context ctx_;
  GroStats stats_;
};

// Snapshot a GroStats into `registry` under `label` (the engine instance,
// e.g. "juggler" or "receiver"): gro.flush counters labelled by Table-2
// reason plus the packet/segment totals.
void PublishGroStats(const GroStats& stats, const std::string& label,
                     MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_GRO_GRO_ENGINE_H_
