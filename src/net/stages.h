// Inline pipeline stage: the NetFPGA-style reorder stage, composable in front
// of any sink.

#ifndef JUGGLER_SRC_NET_STAGES_H_
#define JUGGLER_SRC_NET_STAGES_H_

#include <vector>

#include "src/net/packet_sink.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/util/flat_fifo.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace juggler {

// Models the paper's NetFPGA-10G testbed switch (Figure 11): each inbound
// packet is hashed uniformly at random to one of N internal lanes; lane i
// adds a fixed delay. Order is preserved *within* a lane (each lane is a
// FIFO), so the reordering a receiver sees is exactly the delay difference
// across lanes — the paper's "Xµs reordering".
//
// Committed lanes: a fixed delay over a clock that never goes back keeps a
// lane's departures in arrival order, so a lane commits each packet's
// departure at admission, queues (departure, packet) in one FIFO, and arms a
// single timer for its head, re-armed as each head leaves — the way Link
// commits departures. A packet costs one event in a delaying lane and none
// in a zero-delay lane: a packet due now on an empty lane goes straight to
// the sink.
class ReorderStage : public PacketSink {
 public:
  ReorderStage(EventLoop* loop, std::vector<TimeNs> lane_delays, uint64_t seed, PacketSink* sink);
  // A pending lane timer holds `this`.
  ReorderStage(const ReorderStage&) = delete;
  ReorderStage& operator=(const ReorderStage&) = delete;

  void Accept(PacketPtr packet) override;

  uint64_t packets_through() const { return packets_; }

  // Displacement a packet suffers relative to the latest egress time already
  // scheduled: 0 for a packet leaving last (in order), else how far (ns) it
  // jumps ahead of a predecessor — the in-path reordering signal of the
  // data-plane detection literature. Always-on: one compare + histogram add.
  const Log2Histogram& displacement_histogram() const { return displacement_; }

 private:
  struct Departure {
    TimeNs out;
    PacketPtr packet;
  };
  // A lane's timer is armed exactly while its queue is non-empty.
  struct Lane {
    TimeNs delay = 0;
    FlatFifo<Departure> queue;
  };

  // Arms lane `index`'s timer for its head.
  void ArmHead(size_t index);
  // Lane timer: hands the head to the sink and arms the next.
  void Depart(size_t index);

  EventLoop* loop_;
  std::vector<Lane> lanes_;
  Rng rng_;
  PacketSink* sink_;
  uint64_t packets_ = 0;
  Log2Histogram displacement_;
  TimeNs max_out_ = 0;  // latest egress time scheduled so far
};

// Snapshot a ReorderStage's displacement histogram into `registry`.
void PublishReorderStats(const ReorderStage& stage, const std::string& label,
                         MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_NET_STAGES_H_
