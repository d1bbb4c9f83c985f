// TCP substrate tests, run over a minimal "pipe" network that converts each
// wire packet into a one-packet segment after a fixed delay (optionally
// dropping or permuting) — TCP logic in isolation from NIC/GRO.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/sim/event_loop.h"
#include "src/tcp/tcp_endpoint.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

Segment PacketToSegment(const Packet& p) {
  Segment s;
  s.flow = p.flow;
  s.seq = p.seq;
  s.payload_len = p.payload_len;
  s.mtu_count = p.payload_len > 0 ? 1 : 0;
  s.flags = p.flags;
  s.ack_seq = p.ack_seq;
  s.ack_rwnd = p.ack_rwnd;
  s.sent_time = p.sent_time;
  return s;
}

// Delivers each packet to a TcpEndpoint after `delay`; drop_fn may eat it.
class PipeSink : public PacketSink {
 public:
  PipeSink(EventLoop* loop, TimeNs delay) : loop_(loop), delay_(delay) {}

  void set_target(TcpEndpoint* target) { target_ = target; }
  void set_drop_fn(std::function<bool(const Packet&)> fn) { drop_fn_ = std::move(fn); }
  void set_extra_delay_fn(std::function<TimeNs(const Packet&)> fn) {
    extra_delay_fn_ = std::move(fn);
  }

  void Accept(PacketPtr packet) override {
    ++packets_;
    if (drop_fn_ && drop_fn_(*packet)) {
      ++drops_;
      return;
    }
    const TimeNs extra = extra_delay_fn_ ? extra_delay_fn_(*packet) : 0;
    const Segment s = PacketToSegment(*packet);
    loop_->Schedule(delay_ + extra, [this, s] { target_->OnSegment(s); });
  }

  uint64_t packets() const { return packets_; }
  uint64_t drops() const { return drops_; }

 private:
  EventLoop* loop_;
  TimeNs delay_;
  TcpEndpoint* target_ = nullptr;
  std::function<bool(const Packet&)> drop_fn_;
  std::function<TimeNs(const Packet&)> extra_delay_fn_;
  uint64_t packets_ = 0;
  uint64_t drops_ = 0;
};

struct TcpHarness {
  explicit TcpHarness(TimeNs one_way_delay = Us(10), TcpConfig config = {}) {
    a_to_b_pipe = std::make_unique<PipeSink>(&loop, one_way_delay);
    b_to_a_pipe = std::make_unique<PipeSink>(&loop, one_way_delay);
    a_nic = std::make_unique<NicTx>(&loop, &factory, a_to_b_pipe.get());
    b_nic = std::make_unique<NicTx>(&loop, &factory, b_to_a_pipe.get());
    const FiveTuple flow = TestFlow();
    a = std::make_unique<TcpEndpoint>(&loop, config, flow, a_nic.get());
    b = std::make_unique<TcpEndpoint>(&loop, config, flow.Reversed(), b_nic.get());
    a_to_b_pipe->set_target(b.get());
    b_to_a_pipe->set_target(a.get());
  }

  EventLoop loop;
  PacketFactory factory;
  std::unique_ptr<PipeSink> a_to_b_pipe;
  std::unique_ptr<PipeSink> b_to_a_pipe;
  std::unique_ptr<NicTx> a_nic;
  std::unique_ptr<NicTx> b_nic;
  std::unique_ptr<TcpEndpoint> a;
  std::unique_ptr<TcpEndpoint> b;
};

TEST(TcpTest, TransfersExactByteCount) {
  TcpHarness h;
  h.a->Send(1'000'000);
  h.loop.RunUntil(Ms(100));
  EXPECT_EQ(h.b->bytes_delivered(), 1'000'000u);
  EXPECT_EQ(h.a->bytes_acked(), 1'000'000u);
  EXPECT_EQ(h.a->backlog_bytes(), 0u);
}

TEST(TcpTest, DeliveryCallbackMonotonic) {
  TcpHarness h;
  uint64_t last = 0;
  bool monotonic = true;
  h.b->set_on_deliver([&](uint64_t total) {
    monotonic &= total >= last;
    last = total;
  });
  h.a->Send(500'000);
  h.loop.RunUntil(Ms(50));
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(last, 500'000u);
}

TEST(TcpTest, SlowStartGrowsCwnd) {
  TcpHarness h;
  const uint32_t initial = h.a->cwnd();
  h.a->Send(2'000'000);
  h.loop.RunUntil(Ms(10));
  EXPECT_GT(h.a->cwnd(), initial);
}

TEST(TcpTest, RecoversFromSingleLoss) {
  TcpHarness h;
  uint64_t count = 0;
  h.a_to_b_pipe->set_drop_fn([&count](const Packet& p) {
    return p.payload_len > 0 && ++count == 50;  // drop the 50th data packet
  });
  h.a->Send(1'000'000);
  h.loop.RunUntil(Ms(100));
  EXPECT_EQ(h.b->bytes_delivered(), 1'000'000u);
  EXPECT_GE(h.a->sender_stats().fast_retransmits + h.a->sender_stats().rtos, 1u);
}

TEST(TcpTest, FastRetransmitOnTripleDupAck) {
  TcpHarness h;
  uint64_t count = 0;
  h.a_to_b_pipe->set_drop_fn([&count](const Packet& p) {
    return p.payload_len > 0 && ++count == 20;
  });
  h.a->Send(2'000'000);
  h.loop.RunUntil(Ms(100));
  EXPECT_EQ(h.b->bytes_delivered(), 2'000'000u);
  // With plenty of packets in flight behind the loss, fast retransmit (not
  // RTO) should do the recovery.
  EXPECT_GE(h.a->sender_stats().fast_retransmits, 1u);
  EXPECT_EQ(h.a->sender_stats().rtos, 0u);
}

TEST(TcpTest, RtoRecoversTailLoss) {
  TcpHarness h;
  bool armed = true;
  h.a_to_b_pipe->set_drop_fn([&](const Packet& p) {
    // Drop the very last data packet of the message (tail loss: no dupacks).
    if (armed && p.payload_len > 0 && p.seq + p.payload_len == 100'000u) {
      armed = false;
      return true;
    }
    return false;
  });
  h.a->Send(100'000);
  h.loop.RunUntil(Ms(200));
  EXPECT_EQ(h.b->bytes_delivered(), 100'000u);
  EXPECT_GE(h.a->sender_stats().rtos, 1u);
}

TEST(TcpTest, SurvivesHeavyRandomLoss) {
  TcpHarness h;
  Rng rng(3);
  h.a_to_b_pipe->set_drop_fn(
      [&rng](const Packet& p) { return p.payload_len > 0 && rng.NextBool(0.05); });
  h.a->Send(500'000);
  h.loop.RunUntil(Sec(2));
  EXPECT_EQ(h.b->bytes_delivered(), 500'000u);
}

TEST(TcpTest, ReorderingTriggersSpuriousRetransmits) {
  // The §1 pathology: delay every 5th packet by 200us; the receiver emits
  // dup ACK storms and the sender retransmits needlessly.
  TcpHarness h;
  uint64_t count = 0;
  h.a_to_b_pipe->set_extra_delay_fn([&count](const Packet& p) -> TimeNs {
    if (p.payload_len == 0) {
      return 0;
    }
    return (++count % 5 == 0) ? Us(200) : 0;
  });
  h.a->Send(3'000'000);
  h.loop.RunUntil(Sec(1));
  EXPECT_EQ(h.b->bytes_delivered(), 3'000'000u);
  EXPECT_GT(h.a->sender_stats().fast_retransmits, 0u);
  EXPECT_GT(h.b->receiver_stats().ooo_segments_in, 0u);
}

TEST(TcpTest, HigherDupackThresholdToleratesReordering) {
  // The classic TCP-side mitigation (§6): raising dupthresh suppresses the
  // spurious retransmits (but does nothing for the CPU cost — that is the
  // point of fixing GRO instead).
  TcpConfig config;
  // Above the worst case: one 64KB TSO burst arrives together, so a hole at
  // its head collects up to 44 duplicate ACKs from the rest of the burst.
  config.dupack_threshold = 50;
  // Pace to 1Gb/s so at most ~one burst lands within the 200us displacement.
  config.pacing_rate_bps = 1 * kGbps;
  TcpHarness h(Us(10), config);
  uint64_t count = 0;
  h.a_to_b_pipe->set_extra_delay_fn([&count](const Packet& p) -> TimeNs {
    if (p.payload_len == 0) {
      return 0;
    }
    return (++count % 5 == 0) ? Us(200) : 0;
  });
  h.a->Send(3'000'000);
  h.loop.RunUntil(Sec(1));
  EXPECT_EQ(h.b->bytes_delivered(), 3'000'000u);
  EXPECT_EQ(h.a->sender_stats().fast_retransmits, 0u);
}

TEST(TcpTest, ThroughputTracksRttAndWindow) {
  // Sanity: a 2MB transfer over a 100us RTT with 3MB max cwnd finishes in a
  // handful of RTTs.
  TcpHarness h(Us(50));
  h.a->Send(2'000'000);
  h.loop.RunUntil(Ms(20));
  EXPECT_EQ(h.b->bytes_delivered(), 2'000'000u);
}

TEST(TcpTest, PacingLimitsRate) {
  TcpConfig config;
  config.pacing_rate_bps = 1 * kGbps;
  TcpHarness h(Us(10), config);
  h.a->Send(10'000'000);
  h.loop.RunUntil(Ms(10));
  // At 1Gb/s, 10ms moves at most ~1.25MB (plus one burst of slack).
  EXPECT_LT(h.b->bytes_delivered(), 1'400'000u);
  EXPECT_GT(h.b->bytes_delivered(), 800'000u);
}

TEST(TcpTest, RwndPressureThrottlesSender) {
  TcpHarness h(Ms(1));  // long RTT so the shrunken window visibly gates rate
  // Receiver advertises a window shrunk by a constant 5.9MB of "backlog"
  // (rcv_buf is 6MB): effective window ~100KB.
  h.b->set_rwnd_pressure([] { return static_cast<uint64_t>(5'900'000); });
  h.a->Send(4'000'000);
  h.loop.RunUntil(Ms(2));
  // In-flight never exceeds the advertised window (plus the initial burst
  // sent before the first ACK arrived).
  EXPECT_LT(h.a->bytes_acked() + 200'000, 4'000'000u);
  h.loop.RunUntil(Ms(400));
  EXPECT_EQ(h.b->bytes_delivered(), 4'000'000u);  // still completes
}

TEST(TcpTest, RttEstimateConverges) {
  TcpHarness h(Us(100));
  h.a->Send(1'000'000);
  h.loop.RunUntil(Ms(50));
  // One-way 100us -> RTT 200us (plus tiny processing).
  EXPECT_GE(h.a->srtt(), Us(195));
  EXPECT_LE(h.a->srtt(), Us(300));
}

TEST(TcpTest, AckPerSegmentAccounting) {
  TcpHarness h;
  h.a->Send(100'000);
  h.loop.RunUntil(Ms(50));
  // One ACK per delivered segment (pipe gives one segment per MTU packet).
  EXPECT_EQ(h.b->receiver_stats().acks_sent, h.b->receiver_stats().segments_in);
  EXPECT_GE(h.a->sender_stats().acks_in, h.b->receiver_stats().acks_sent - 2);
}

TEST(TcpTest, DuplicateDataIgnoredByReceiver) {
  TcpHarness h;
  h.a->Send(50'000);
  h.loop.RunUntil(Ms(50));
  const uint64_t delivered = h.b->bytes_delivered();
  // Replay an old segment.
  Segment s;
  s.flow = TestFlow();
  s.seq = 0;
  s.payload_len = kMss;
  s.mtu_count = 1;
  s.flags = kFlagAck;
  h.b->OnSegment(s);
  h.loop.RunUntil(Ms(60));
  EXPECT_EQ(h.b->bytes_delivered(), delivered);
  EXPECT_GE(h.b->receiver_stats().old_segments_in, 1u);
}

}  // namespace
}  // namespace juggler
