// SACK, DSACK and retransmission-timer behaviours of the TCP substrate —
// including regression tests for two bugs the figure benches exposed:
// RTO postponement by dupACK-clocked sends, and unbounded dupACK inflation.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/tcp/tcp_endpoint.h"
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
  s.sack = p.sack;
  s.sent_time = p.sent_time;
  return s;
}

class PipeSink : public PacketSink {
 public:
  PipeSink(EventLoop* loop, TimeNs delay) : loop_(loop), delay_(delay) {}
  void set_target(TcpEndpoint* target) { target_ = target; }
  void set_drop_fn(std::function<bool(const Packet&)> fn) { drop_fn_ = std::move(fn); }
  void set_extra_delay_fn(std::function<TimeNs(const Packet&)> fn) {
    extra_delay_fn_ = std::move(fn);
  }

  void Accept(PacketPtr packet) override {
    last_sack = packet->sack;
    if (drop_fn_ && drop_fn_(*packet)) {
      return;
    }
    const TimeNs extra = extra_delay_fn_ ? extra_delay_fn_(*packet) : 0;
    const Segment s = PacketToSegment(*packet);
    loop_->Schedule(delay_ + extra, [this, s] { target_->OnSegment(s); });
  }

  SackBlocks last_sack;

 private:
  EventLoop* loop_;
  TimeNs delay_;
  TcpEndpoint* target_ = nullptr;
  std::function<bool(const Packet&)> drop_fn_;
  std::function<TimeNs(const Packet&)> extra_delay_fn_;
};

struct Harness {
  explicit Harness(TimeNs delay = Us(10), TcpConfig config = {})
      : a_pipe(&loop, delay),
        b_pipe(&loop, delay),
        a_nic(&loop, &factory, &a_pipe),
        b_nic(&loop, &factory, &b_pipe) {
    const FiveTuple flow = TestFlow();
    a = std::make_unique<TcpEndpoint>(&loop, config, flow, &a_nic);
    b = std::make_unique<TcpEndpoint>(&loop, config, flow.Reversed(), &b_nic);
    a_pipe.set_target(b.get());
    b_pipe.set_target(a.get());
  }
  EventLoop loop;
  PacketFactory factory;
  PipeSink a_pipe;  // a -> b (data)
  PipeSink b_pipe;  // b -> a (ACKs)
  NicTx a_nic;
  NicTx b_nic;
  std::unique_ptr<TcpEndpoint> a;
  std::unique_ptr<TcpEndpoint> b;
};

TEST(TcpSackTest, ReceiverAdvertisesSackBlocks) {
  Harness h;
  // Deliver a segment past a hole directly to the receiver.
  Segment s;
  s.flow = TestFlow();
  s.seq = 5000;
  s.payload_len = 1000;
  s.mtu_count = 1;
  s.flags = kFlagAck;
  h.b->OnSegment(s);
  h.loop.Run();
  ASSERT_GE(h.b_pipe.last_sack.count, 1);
  EXPECT_EQ(h.b_pipe.last_sack.start[0], 5000u);
  EXPECT_EQ(h.b_pipe.last_sack.end[0], 6000u);
}

TEST(TcpSackTest, SackRecoveryRetransmitsWholeHole) {
  // Drop an entire 45-packet TSO burst; SACK recovery must resend the hole
  // as one burst rather than one MSS per RTT.
  Harness h;
  uint64_t count = 0;
  h.a_pipe.set_drop_fn([&](const Packet& p) {
    if (p.payload_len == 0) {
      return false;
    }
    ++count;
    // Drop the 50th..94th data transmissions (a full TSO worth, once).
    return count >= 50 && count < 95;
  });
  h.a->Send(2'000'000);
  h.loop.RunUntil(Ms(50));
  EXPECT_EQ(h.b->bytes_delivered(), 2'000'000u);
  // Recovery should be dominated by fast retransmit, not a string of RTOs.
  EXPECT_LE(h.a->sender_stats().rtos, 1u);
  EXPECT_GE(h.a->sender_stats().retransmitted_bytes, 44u * kMss);
}

TEST(TcpSackTest, DsackDetectionRaisesThreshold) {
  Harness h;
  // Reorder-like injury: duplicate delivery after a retransmission.
  // Simulate directly: sender retransmits (we force via drops), and the
  // "lost" original arrives later as a duplicate -> receiver DSACKs.
  std::vector<Packet> held;
  uint64_t count = 0;
  h.a_pipe.set_drop_fn([&](const Packet& p) {
    if (p.payload_len > 0 && ++count == 10) {
      held.push_back(p);  // delay the 10th data packet
      return true;
    }
    return false;
  });
  h.a->Send(200'000);
  h.loop.RunUntil(Ms(30));  // loss recovered via retransmission by now
  const int threshold_before = h.a->effective_dupack_threshold();
  // The held original finally arrives: fully duplicate.
  for (const Packet& p : held) {
    h.b->OnSegment(PacketToSegment(p));
  }
  h.loop.RunUntil(Ms(60));
  EXPECT_GE(h.a->sender_stats().spurious_retransmits_detected, 1u);
  EXPECT_GT(h.a->effective_dupack_threshold(), threshold_before);
}

TEST(TcpSackTest, RtoResetsAdaptiveThreshold) {
  TcpConfig config;
  Harness h(Us(10), config);
  h.a->Send(100'000);
  h.loop.RunUntil(Ms(20));
  // Force the adaptive threshold up via the DSACK path.
  Segment dup;
  dup.flow = TestFlow();
  dup.seq = 0;
  dup.payload_len = kMss;
  dup.mtu_count = 1;
  dup.flags = kFlagAck;
  h.b->OnSegment(dup);  // duplicate of delivered data -> DSACK
  h.loop.RunUntil(Ms(25));
  // Now cause a genuine timeout: drop everything for a while.
  bool blackhole = true;
  h.a_pipe.set_drop_fn([&](const Packet&) { return blackhole; });
  h.a->Send(50'000);
  h.loop.RunUntil(Ms(100));
  blackhole = false;
  h.loop.RunUntil(Ms(400));
  EXPECT_GE(h.a->sender_stats().rtos, 1u);
  EXPECT_EQ(h.a->effective_dupack_threshold(), config.dupack_threshold);
  EXPECT_EQ(h.b->bytes_delivered(), 150'000u);
}

TEST(TcpSackTest, AdaptiveDupackThresholdStopsAt256) {
  // Every DSACK-proven spurious fast retransmit doubles the dupACK threshold
  // (3, 6, ..., 192) until it reaches its cap of 256. Hold every 3000th new
  // data packet for 1 ms, ten RTTs of this 100 us path: the hole it leaves
  // triggers a fast retransmit, and the late original comes back as a DSACK.
  // The hold stays under the 2 ms minimum RTO, so no timeout resets the
  // threshold along the way.
  constexpr int kCap = 256;
  constexpr uint64_t kHoldEvery = 3000;
  constexpr TimeNs kHold = Ms(1);
  constexpr TimeNs kRun = Ms(10);
  Harness h(Us(50));
  Seq next_new = 0;
  uint64_t new_packets = 0;
  h.a_pipe.set_extra_delay_fn([&](const Packet& p) -> TimeNs {
    if (p.payload_len == 0 || SeqBefore(p.seq, next_new)) {
      return 0;  // an ACK or a retransmission
    }
    next_new = p.seq + p.payload_len;
    return ++new_packets % kHoldEvery == 0 ? kHold : 0;
  });
  h.a->SendForever();
  int max_threshold = 0;
  uint64_t detections_at_cap = 0;
  while (h.loop.now() < kRun) {
    const int before = h.a->effective_dupack_threshold();
    const uint64_t detected = h.a->sender_stats().spurious_retransmits_detected;
    h.loop.RunSteps(1);
    if (before == kCap && h.a->sender_stats().spurious_retransmits_detected > detected) {
      ++detections_at_cap;
    }
    max_threshold = std::max(max_threshold, h.a->effective_dupack_threshold());
  }
  EXPECT_EQ(max_threshold, kCap);
  EXPECT_EQ(h.a->effective_dupack_threshold(), kCap);
  EXPECT_GT(detections_at_cap, 0u) << "no spurious retransmit was proven at the cap";
  ASSERT_EQ(h.a->sender_stats().rtos, 0u);

  // A genuine timeout resets the learned threshold to dupack_threshold.
  h.a_pipe.set_drop_fn([](const Packet& p) { return p.payload_len > 0; });
  while (h.a->sender_stats().rtos == 0) {
    h.loop.RunSteps(1);
  }
  EXPECT_EQ(h.a->effective_dupack_threshold(), 3);
}

TEST(TcpSackTest, RtoNotPostponedByOngoingSends) {
  // Regression: a lost retransmission must be retried ~RTO after the fast
  // retransmit even while dupACK-clocked sends continue. (The bug: ArmRto on
  // every transmission kept pushing the timer forever.)
  TcpConfig config;
  config.initial_rto = Ms(10);
  config.max_rto = Ms(16);
  Harness h(Us(10), config);
  uint64_t count = 0;
  int rtx_seen = 0;
  h.a_pipe.set_drop_fn([&](const Packet& p) {
    if (p.payload_len == 0) {
      return false;
    }
    ++count;
    if (count == 20) {
      return true;  // original loss
    }
    // Drop the first retransmission of that hole (seq below the frontier
    // and previously seen): identify crudely by the retransmit being the
    // first out-of-frontier-order send.
    if (p.seq + p.payload_len <= 20 * kMss && count > 20 && ++rtx_seen == 1) {
      return true;
    }
    return false;
  });
  // Keep a steady open-loop trickle so sends continue throughout.
  for (int i = 0; i < 200; ++i) {
    h.loop.Schedule(i * Us(200), [&h] { h.a->Send(kMss); });
  }
  h.loop.RunUntil(Ms(120));
  EXPECT_EQ(h.b->bytes_delivered(), 200u * kMss);
  // The hole healed via timeout well within the run; total time far less
  // than the 40ms+ horizon means no indefinite postponement.
  EXPECT_GE(h.a->sender_stats().rtos, 1u);
}

TEST(TcpSackTest, InflationBoundedDuringStalledRecovery) {
  // Regression: while recovery is stalled (retransmission lost), incoming
  // dupACKs must not inflate cwnd without bound.
  TcpConfig config;
  config.initial_rto = Ms(50);  // keep the stall alive for a while
  Harness h(Us(10), config);
  uint64_t count = 0;
  int below_frontier = 0;
  h.a_pipe.set_drop_fn([&](const Packet& p) {
    if (p.payload_len == 0) {
      return false;
    }
    ++count;
    if (count == 5) {
      return true;
    }
    if (p.seq + p.payload_len <= 5 * kMss && count > 5 && ++below_frontier <= 3) {
      return true;  // swallow the first few retransmissions
    }
    return false;
  });
  for (int i = 0; i < 150; ++i) {
    h.loop.Schedule(i * Us(100), [&h] { h.a->Send(kMss); });
  }
  h.loop.RunUntil(Ms(30));  // still inside the stalled recovery
  EXPECT_LT(h.a->cwnd(), 1'000'000u);
  h.loop.RunUntil(Ms(300));
  EXPECT_EQ(h.b->bytes_delivered(), 150u * kMss);
}

TEST(TcpSackTest, SackBlocksCapAtThree) {
  Harness h;
  // Create four separate holes at the receiver.
  for (Seq start : {Seq{10000}, Seq{20000}, Seq{30000}, Seq{40000}}) {
    Segment s;
    s.flow = TestFlow();
    s.seq = start;
    s.payload_len = 500;
    s.mtu_count = 1;
    s.flags = kFlagAck;
    h.b->OnSegment(s);
  }
  h.loop.Run();
  EXPECT_EQ(h.b_pipe.last_sack.count, 3);
}

}  // namespace
}  // namespace juggler
