// Cross-shard packet handoff for the sharded engine.
//
// A ShardMailbox is the single-producer/single-consumer channel between one
// ordered (source domain, destination domain) pair. During a lookahead
// window's run phase the source domain's worker appends envelopes; after the
// barrier, the destination domain's worker drains them and schedules the
// arrivals into its own EventLoop. Exactly one thread touches the mailbox in
// each phase and the engine's barrier orders the phases, so the buffer needs
// no atomics — the synchronization lives in the barrier, which is what makes
// the whole handoff TSan-clean and cheap (a plain vector push per crossing).
//
// A crossing carries a copy of the packet, never the packet: the source
// frees its packet into its own domain's pool at the crossing, and the
// destination takes storage for the arrival from its own pool when it
// injects the envelope. Packet storage therefore never changes domain, and
// no pool is ever touched by two threads.
//
// A RemoteEndpoint is the sink a link whose far end runs in another domain
// delivers into: it stamps each packet with its absolute arrival time —
// source-domain now plus the wire's propagation delay, which the crossing
// stands in for. The endpoint's `latency` must be > 0: it is the lower bound
// the engine's conservative lookahead is derived from, so a packet emitted
// at local time t can only ever arrive at t + latency, strictly inside the
// *next* window — the no-causality-violation invariant of a conservative
// parallel DES.

#ifndef JUGGLER_SRC_SIM_SHARD_MAILBOX_H_
#define JUGGLER_SRC_SIM_SHARD_MAILBOX_H_

#include <cstdint>
#include <vector>

#include "src/net/packet_sink.h"
#include "src/packet/packet.h"
#include "src/util/logging.h"
#include "src/util/time.h"

namespace juggler {

// One packet crossing shard domains: a copy of the packet (plain data, its
// pool stamp included, which the destination overwrites), when it arrives
// in the destination domain's clock, and which sink there receives it.
struct ShardEnvelope {
  Packet packet;
  TimeNs arrival = 0;
  PacketSink* sink = nullptr;
};

// SPSC buffer for one (source domain, destination domain) pair. The engine's
// window barrier separates the producer's Push calls from the consumer's
// Drain, so no internal locking is needed (see file comment).
//
// The buffer is bounded: a wedged or slow consumer must degrade visibly (a
// rising high watermark, then counted overflow drops that TCP treats as
// wire loss) instead of growing the producer's memory without bound. The
// default capacity is far above what any healthy window crosses — at the
// default it acts as a memory fuse, not a throttle — and overflow_drops /
// high_watermark are surfaced through ShardedEngineStats so `chaos_runner
// --shards` prints them.
class ShardMailbox {
 public:
  // ~24MB of 192-byte envelopes per pair at the fuse point; the deepest
  // healthy window measured buffered 9 (chaos_runner --shards 2) and 7 (the
  // 32-host Clos bulk run).
  static constexpr size_t kDefaultCapacity = 1u << 17;

  // `capacity` == 0 restores the default. Safe to call between windows; the
  // engine applies it from the construction thread before Run().
  void set_capacity(size_t capacity) {
    capacity_ = capacity == 0 ? kDefaultCapacity : capacity;
  }
  size_t capacity() const { return capacity_; }

  void Push(const Packet& packet, TimeNs arrival, PacketSink* sink) {
    if (buffer_.size() >= capacity_) {
      // Shed like any other wire loss; the producer keeps running and the
      // counter tells the story.
      ++overflow_drops_;
      return;
    }
    buffer_.emplace_back(packet, arrival, sink);
    if (buffer_.size() > high_watermark_) {
      high_watermark_ = buffer_.size();
    }
  }

  bool empty() const { return buffer_.empty(); }

  // Envelopes rejected because the buffer sat at capacity.
  uint64_t overflow_drops() const { return overflow_drops_; }
  // Largest batch ever buffered between one window's run and inject phases.
  size_t high_watermark() const { return high_watermark_; }

  // The consumer takes the whole batch; capacity is kept so steady-state
  // windows re-use the same storage.
  std::vector<ShardEnvelope>& buffer() { return buffer_; }

  void Clear() { buffer_.clear(); }

 private:
  std::vector<ShardEnvelope> buffer_;
  size_t capacity_ = kDefaultCapacity;
  size_t high_watermark_ = 0;
  uint64_t overflow_drops_ = 0;
};

// Producer-side delivery target for a link whose next element lives in
// another shard domain. Holds the mailbox toward that domain, the arrival
// sink within it, the source domain's clock, and the wire latency this
// crossing stands in for.
class RemoteEndpoint : public PacketSink {
 public:
  // `latency` is the share of the wire's propagation delay carried by the
  // crossing itself; must be > 0 (it lower-bounds the engine's lookahead).
  RemoteEndpoint(ShardMailbox* mailbox, const TimeNs* src_now, TimeNs latency)
      : mailbox_(mailbox), src_now_(src_now), latency_(latency) {
    JUG_CHECK(mailbox_ != nullptr);
    JUG_CHECK(src_now_ != nullptr);
    JUG_CHECK(latency_ > 0);
  }

  // Where the packet lands in the destination domain. Settable after
  // construction because topology builders wire cycles (LatchSink-style).
  void set_sink(PacketSink* sink) { sink_ = sink; }

  TimeNs latency() const { return latency_; }

  // Enqueue a copy of `packet` to arrive at src-now + latency. The packet
  // itself is freed here, on the source domain's worker, into its pool.
  void Accept(PacketPtr packet) override {
    JUG_CHECK(sink_ != nullptr);
    mailbox_->Push(*packet, *src_now_ + latency_, sink_);
  }

 private:
  ShardMailbox* mailbox_;
  const TimeNs* src_now_;
  PacketSink* sink_ = nullptr;
  TimeNs latency_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_SIM_SHARD_MAILBOX_H_
