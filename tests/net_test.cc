#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/link.h"
#include "src/net/load_balancer.h"
#include "src/net/stages.h"
#include "src/net/switch.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

// Collects packets with their arrival times.
class CollectorSink : public PacketSink {
 public:
  explicit CollectorSink(EventLoop* loop) : loop_(loop) {}

  void Accept(PacketPtr packet) override {
    arrival_times.push_back(loop_->now());
    packets.push_back(std::move(packet));
  }

  std::vector<TimeNs> arrival_times;
  std::vector<PacketPtr> packets;

 private:
  EventLoop* loop_;
};

PacketPtr WirePacket(PacketFactory* f, Seq seq, uint32_t len = kMss,
                     Priority prio = Priority::kLow) {
  PacketPtr p = f->Make();
  p->flow = TestFlow();
  p->seq = seq;
  p->payload_len = len;
  p->priority = prio;
  return p;
}

// ---- Link ----

TEST(LinkTest, SerializesAtRate) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  link.Accept(WirePacket(&f, 0));
  link.Accept(WirePacket(&f, kMss));
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 2u);
  const TimeNs ser = SerializationTime(kMss + kPerPacketWireOverhead, cfg.rate_bps);
  EXPECT_EQ(sink.arrival_times[0], ser);
  EXPECT_EQ(sink.arrival_times[1], 2 * ser);
}

TEST(LinkTest, PropagationDelayAdds) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = Us(5);
  Link link(&loop, "l", cfg, &sink);
  link.Accept(WirePacket(&f, 0));
  loop.Run();
  const TimeNs ser = SerializationTime(kMss + kPerPacketWireOverhead, cfg.rate_bps);
  EXPECT_EQ(sink.arrival_times[0], ser + Us(5));
}

TEST(LinkTest, FifoOrderPreserved) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  Link link(&loop, "l", cfg, &sink);
  for (Seq s = 0; s < 20; ++s) {
    link.Accept(WirePacket(&f, s * kMss));
  }
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 20u);
  for (Seq s = 0; s < 20; ++s) {
    EXPECT_EQ(sink.packets[s]->seq, s * kMss);
  }
}

TEST(LinkTest, DropTailAtLimit) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 1 * kGbps;
  cfg.queue_limit_bytes = 3 * (kMss + kPerPacketWireOverhead);
  Link link(&loop, "l", cfg, &sink);
  for (Seq s = 0; s < 10; ++s) {
    link.Accept(WirePacket(&f, s * kMss));
  }
  loop.Run();
  EXPECT_GT(link.stats().drops, 0u);
  EXPECT_EQ(sink.packets.size() + link.stats().drops, 10u);
  // The limit bounds the waiting queue; the packet being serialized is
  // additionally counted in occupancy.
  EXPECT_LE(link.stats().max_queue_bytes,
            cfg.queue_limit_bytes + kMss + kPerPacketWireOverhead);
}

TEST(LinkTest, StrictPriorityServesHighFirst) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 1 * kGbps;
  cfg.num_priorities = 2;
  Link link(&loop, "l", cfg, &sink);
  // Fill with low-priority, then one high-priority: high must jump ahead of
  // all queued low packets (but not the one already serializing).
  for (Seq s = 0; s < 5; ++s) {
    link.Accept(WirePacket(&f, s * kMss, kMss, Priority::kLow));
  }
  link.Accept(WirePacket(&f, 100 * kMss, kMss, Priority::kHigh));
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 6u);
  EXPECT_EQ(sink.packets[1]->seq, 100 * kMss);  // high right after in-flight
}

TEST(LinkTest, BackToBackFramesCostOneEventEach) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = Us(5);
  Link link(&loop, "l", cfg, &sink);
  constexpr int kFrames = 8;
  for (int k = 0; k < kFrames; ++k) {
    link.Accept(WirePacket(&f, static_cast<Seq>(k) * kMss));
  }
  loop.Run();
  // One arrival event per frame: no transmit-done event, no flight event.
  EXPECT_EQ(loop.executed_events(), static_cast<uint64_t>(kFrames));
  ASSERT_EQ(sink.packets.size(), static_cast<size_t>(kFrames));
  const TimeNs ser = SerializationTime(kMss + kPerPacketWireOverhead, cfg.rate_bps);
  for (int k = 0; k < kFrames; ++k) {
    EXPECT_EQ(sink.arrival_times[k], (k + 1) * ser + cfg.propagation_delay) << "frame " << k;
  }
}

TEST(LinkTest, LinkSwitchLinkChainCostsTwoEventsPerFrame) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = Us(2);
  Link second(&loop, "second", cfg, &sink);
  Switch sw("sw", LbPolicy::kEcmp);
  sw.AddRoute(TestFlow().dst_ip, &second);
  Link first(&loop, "first", cfg, &sw);
  constexpr int kFrames = 6;
  for (int k = 0; k < kFrames; ++k) {
    first.Accept(WirePacket(&f, static_cast<Seq>(k) * kMss));
  }
  loop.Run();
  EXPECT_EQ(loop.executed_events(), static_cast<uint64_t>(2 * kFrames));
  ASSERT_EQ(sink.packets.size(), static_cast<size_t>(kFrames));
  // The first hop spaces the frames one serialization apart, so none queues
  // at the second: frame k (from 1) leaves it at (k + 1) * ser + prop.
  const TimeNs ser = SerializationTime(kMss + kPerPacketWireOverhead, cfg.rate_bps);
  for (int k = 0; k < kFrames; ++k) {
    EXPECT_EQ(sink.arrival_times[k], (k + 2) * ser + 2 * cfg.propagation_delay) << "frame " << k;
  }
}

TEST(LinkTest, StrictPriorityHighWaitsForSerializingLowThenOvertakesQueue) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 1 * kGbps;
  cfg.propagation_delay = Us(3);
  cfg.num_priorities = 2;
  Link link(&loop, "l", cfg, &sink);
  for (Seq s = 0; s < 3; ++s) {
    link.Accept(WirePacket(&f, s * kMss, kMss, Priority::kLow));
  }
  const TimeNs ser = SerializationTime(kMss + kPerPacketWireOverhead, cfg.rate_bps);
  loop.RunUntil(ser / 2);  // the first low frame is serializing
  link.Accept(WirePacket(&f, 100 * kMss, kMss, Priority::kHigh));
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 4u);
  const Seq order[] = {0, 100 * kMss, kMss, 2 * kMss};
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(sink.packets[k]->seq, order[k]) << "frame " << k;
    EXPECT_EQ(sink.arrival_times[k], static_cast<TimeNs>(k + 1) * ser + cfg.propagation_delay)
        << "frame " << k;
  }
}

TEST(LinkTest, StatsReadStateAtNowBetweenCompletions) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = Us(100);  // no frame arrives inside the window
  Link link(&loop, "l", cfg, &sink);
  for (Seq s = 0; s < 5; ++s) {
    link.Accept(WirePacket(&f, s * kMss));
  }
  const int64_t wire = kMss + kPerPacketWireOverhead;
  const TimeNs ser = SerializationTime(wire, cfg.rate_bps);
  loop.RunUntil(2 * ser + ser / 2);
  // Two frames finished serializing by now, though no event has fired.
  EXPECT_EQ(loop.executed_events(), 0u);
  EXPECT_EQ(link.stats().packets_tx, 2u);
  EXPECT_EQ(link.stats().bytes_tx, static_cast<uint64_t>(2 * wire));
  EXPECT_EQ(link.queued_bytes(), 3 * wire);
  EXPECT_EQ(link.stats().max_queue_bytes, 5 * wire);
  loop.RunUntil(3 * ser);  // the third completes exactly now
  EXPECT_EQ(link.stats().packets_tx, 3u);
  EXPECT_EQ(link.queued_bytes(), 2 * wire);
}

TEST(LinkTest, ByteAccounting) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  Link link(&loop, "l", cfg, &sink);
  link.Accept(WirePacket(&f, 0, 1000));
  loop.Run();
  EXPECT_EQ(link.stats().packets_tx, 1u);
  EXPECT_EQ(link.stats().bytes_tx, 1000u + kPerPacketWireOverhead);
  EXPECT_EQ(link.queued_bytes(), 0);
}

// ---- ReorderStage ----

TEST(ReorderStageTest, SingleLaneNoReorder) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  ReorderStage stage(&loop, {Us(10)}, 1, &sink);
  for (Seq s = 0; s < 10; ++s) {
    stage.Accept(WirePacket(&f, s * kMss));
  }
  loop.Run();
  for (Seq s = 0; s < 10; ++s) {
    EXPECT_EQ(sink.packets[s]->seq, s * kMss);
    EXPECT_EQ(sink.arrival_times[s], Us(10));
  }
}

TEST(ReorderStageTest, TwoLanesReorderByDelayDelta) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  ReorderStage stage(&loop, {0, Us(100)}, 7, &sink);
  // Send packets spaced 1us apart; those on lane 1 arrive ~100us late.
  for (Seq s = 0; s < 200; ++s) {
    loop.Schedule(s * Us(1), [&stage, &f, s] { stage.Accept(WirePacket(&f, s * kMss)); });
  }
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 200u);
  uint32_t ooo = 0;
  Seq max_seen = 0;
  for (const auto& p : sink.packets) {
    if (SeqBefore(p->seq, max_seen)) {
      ++ooo;
    }
    max_seen = SeqMax(max_seen, p->seq);
  }
  EXPECT_GT(ooo, 50u);  // heavy reordering
}

TEST(ReorderStageTest, LanePreservesFifo) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  // One lane with a large delay: still FIFO.
  ReorderStage stage(&loop, {Us(500)}, 3, &sink);
  stage.Accept(WirePacket(&f, 0));
  loop.RunUntil(Us(499));
  stage.Accept(WirePacket(&f, kMss));
  loop.Run();
  EXPECT_EQ(sink.packets[0]->seq, 0u);
  EXPECT_EQ(sink.packets[1]->seq, kMss);
}

TEST(ReorderStageTest, CommittedLanesCostOneEventPerDelayedPacket) {
  // Packets accepted every 700ns into lanes {0, 100us}, from outside any
  // event, so every event the loop runs is the stage's. 100us is no
  // multiple of 700ns, so no two departures tie and the order is exact.
  constexpr int kPackets = 400;
  constexpr TimeNs kSpacing = 700;
  const std::vector<TimeNs> delays = {0, Us(100)};
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink(&loop);
  ReorderStage stage(&loop, delays, 7, &sink);

  // The stage's lane choices, replayed from its seed, and by hand: each
  // packet's departure and displacement behind the latest departure so far.
  Rng lanes(7);
  std::vector<std::pair<TimeNs, Seq>> expected;  // (departure, seq)
  Log2Histogram displacement;
  TimeNs max_out = 0;
  uint64_t delayed = 0;
  for (int s = 0; s < kPackets; ++s) {
    const TimeNs at = s * kSpacing;
    const size_t lane = static_cast<size_t>(lanes.NextBounded(delays.size()));
    const TimeNs out = at + delays[lane];
    delayed += lane == 1 ? 1 : 0;
    expected.emplace_back(out, static_cast<Seq>(s) * kMss);
    displacement.Record(max_out > out ? static_cast<uint64_t>(max_out - out) : 0);
    max_out = std::max(max_out, out);

    loop.RunUntil(at);
    const size_t before = sink.packets.size();
    stage.Accept(WirePacket(&f, static_cast<Seq>(s) * kMss));
    // Lane 0 delivers inline; lane 1 holds one timer, for its head.
    EXPECT_EQ(sink.packets.size(), before + (lane == 0 ? 1 : 0)) << "packet " << s;
    EXPECT_LE(loop.pending_timer_ids(), 1u) << "packet " << s;
  }
  loop.Run();

  EXPECT_GT(delayed, 150u);
  EXPECT_LT(delayed, 250u);
  EXPECT_EQ(loop.executed_events(), delayed);
  EXPECT_EQ(stage.packets_through(), static_cast<uint64_t>(kPackets));
  // Each packet leaves at accept time + lane delay, FIFO within its lane.
  std::stable_sort(expected.begin(), expected.end());
  ASSERT_EQ(sink.packets.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sink.arrival_times[i], expected[i].first) << "departure " << i;
    EXPECT_EQ(sink.packets[i]->seq, expected[i].second) << "departure " << i;
  }
  const Log2Histogram& h = stage.displacement_histogram();
  EXPECT_EQ(h.count, displacement.count);
  EXPECT_EQ(h.sum, displacement.sum);
  EXPECT_GT(h.sum, 0u);
  for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
    EXPECT_EQ(h.buckets[b], displacement.buckets[b]) << "bucket " << b;
  }
}

// ---- LoadBalancer ----

TEST(LoadBalancerTest, EcmpIsFlowSticky) {
  LoadBalancer lb(LbPolicy::kEcmp, 4);
  Packet p;
  p.flow = TestFlow();
  const size_t first = lb.PickPath(p);
  for (int i = 0; i < 100; ++i) {
    p.seq += kMss;
    p.tso_id = static_cast<uint64_t>(i);
    EXPECT_EQ(lb.PickPath(p), first);
  }
}

TEST(LoadBalancerTest, EcmpSpreadsFlows) {
  LoadBalancer lb(LbPolicy::kEcmp, 4);
  std::vector<int> counts(4, 0);
  for (uint16_t port = 0; port < 400; ++port) {
    Packet p;
    p.flow = TestFlow(port, 80);
    ++counts[lb.PickPath(p)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 50);
  }
}

TEST(LoadBalancerTest, PerPacketSpraysUniformly) {
  LoadBalancer lb(LbPolicy::kPerPacket, 3, /*seed=*/5);
  Packet p;
  p.flow = TestFlow();
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) {
    ++counts[lb.PickPath(p)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 850);
    EXPECT_LT(c, 1150);
  }
}

TEST(LoadBalancerTest, PerTsoKeepsFlowcellsTogether) {
  LoadBalancer lb(LbPolicy::kPerTso, 4);
  Packet p;
  p.flow = TestFlow();
  p.tso_id = 42;
  const size_t path = lb.PickPath(p);
  for (int i = 0; i < 50; ++i) {
    p.seq += kMss;
    EXPECT_EQ(lb.PickPath(p), path);
  }
  // Different flowcells spread.
  std::vector<int> counts(4, 0);
  for (uint64_t id = 0; id < 400; ++id) {
    p.tso_id = id;
    ++counts[lb.PickPath(p)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 50);
  }
}

TEST(LoadBalancerTest, SinglePathAlwaysZero) {
  LoadBalancer lb(LbPolicy::kPerPacket, 1);
  Packet p;
  EXPECT_EQ(lb.PickPath(p), 0u);
  EXPECT_EQ(lb.PickPath(p), 0u);
}

// ---- Switch ----

TEST(SwitchTest, RoutesByDestination) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink a(&loop);
  CollectorSink b(&loop);
  Switch sw("sw", LbPolicy::kEcmp);
  sw.AddRoute(1, &a);
  sw.AddRoute(2, &b);
  PacketPtr p1 = WirePacket(&f, 0);
  p1->flow.dst_ip = 1;
  PacketPtr p2 = WirePacket(&f, 0);
  p2->flow.dst_ip = 2;
  sw.Accept(std::move(p1));
  sw.Accept(std::move(p2));
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(sw.forwarded(), 2u);
}

TEST(SwitchTest, DefaultRouteUsesUplinks) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink up0(&loop);
  CollectorSink up1(&loop);
  Switch sw("sw", LbPolicy::kPerPacket);
  sw.AddUplink(&up0);
  sw.AddUplink(&up1);
  for (int i = 0; i < 10; ++i) {
    PacketPtr p = WirePacket(&f, 0);
    p->flow.dst_ip = 99;  // no exact route
    sw.Accept(std::move(p));
  }
  // Every packet leaves by an uplink, and spraying uses both of them.
  EXPECT_EQ(up0.packets.size() + up1.packets.size(), 10u);
  EXPECT_GT(up0.packets.size(), 0u);
  EXPECT_GT(up1.packets.size(), 0u);
  EXPECT_EQ(sw.dropped_no_route(), 0u);
}

TEST(SwitchTest, RoutesManyDestinations) {
  // Enough routes to grow the table several times; every address still
  // finds its own port, and an unknown one falls through to the uplink.
  EventLoop loop;
  PacketFactory f;
  std::vector<std::unique_ptr<CollectorSink>> ports;
  CollectorSink uplink(&loop);
  Switch sw("sw", LbPolicy::kEcmp);
  sw.AddUplink(&uplink);
  constexpr uint32_t kHosts = 40;
  auto ip = [](uint32_t h) { return (10u << 24) | ((h % 2) << 16) | (h / 2 + 1); };
  for (uint32_t h = 0; h < kHosts; ++h) {
    ports.push_back(std::make_unique<CollectorSink>(&loop));
    sw.AddRoute(ip(h), ports.back().get());
  }
  for (uint32_t h = 0; h < kHosts; ++h) {
    PacketPtr p = WirePacket(&f, h);
    p->flow.dst_ip = ip(h);
    sw.Accept(std::move(p));
  }
  PacketPtr stray = WirePacket(&f, 0);
  stray->flow.dst_ip = ip(kHosts);
  sw.Accept(std::move(stray));
  for (uint32_t h = 0; h < kHosts; ++h) {
    ASSERT_EQ(ports[h]->packets.size(), 1u) << "host " << h;
    EXPECT_EQ(ports[h]->packets[0]->seq, h);
  }
  EXPECT_EQ(uplink.packets.size(), 1u);
  EXPECT_EQ(sw.forwarded(), kHosts + 1);
}

TEST(SwitchTest, NewFlowletTakesTheUplinkHoldingFewerBytesNow) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink far0(&loop);
  CollectorSink far1(&loop);
  LinkConfig fast;
  fast.rate_bps = 10 * kGbps;
  fast.propagation_delay = Ms(1);  // no arrival fires during the test
  LinkConfig slow = fast;
  slow.rate_bps = 1 * kGbps;
  Link up0(&loop, "up0", fast, &far0);
  Link up1(&loop, "up1", slow, &far1);
  Switch sw("sw", LbPolicy::kFlowlet);
  sw.AddUplink(&up0, &up0);
  sw.AddUplink(&up1, &up1);
  // up0 holds four frames and up1 one, so at t=0 a new flowlet takes up1.
  for (Seq s = 0; s < 4; ++s) {
    up0.Accept(WirePacket(&f, s * kMss));
  }
  up1.Accept(WirePacket(&f, 0));
  auto flowlet = [&f](uint16_t port) {
    PacketPtr p = WirePacket(&f, 0);
    p->flow = TestFlow(port, 80);
    p->flow.dst_ip = 99;  // no exact route
    return p;
  };
  sw.Accept(flowlet(1));
  EXPECT_EQ(up1.queued_bytes(), 2 * (kMss + kPerPacketWireOverhead));
  // By 6us up0's four frames (1.27us each at 10 Gb/s) have all left while
  // up1 (12.7us per frame) still holds two, with no event in between: the
  // switch must read the drained state at now().
  loop.RunUntil(Us(6));
  EXPECT_EQ(loop.executed_events(), 0u);
  EXPECT_EQ(up0.queued_bytes(), 0);
  sw.Accept(flowlet(2));
  EXPECT_EQ(up0.queued_bytes(), kMss + kPerPacketWireOverhead);
  EXPECT_EQ(up1.queued_bytes(), 2 * (kMss + kPerPacketWireOverhead));
}

TEST(SwitchTest, NoRouteCountsDrop) {
  EventLoop loop;
  PacketFactory f;
  Switch sw("sw", LbPolicy::kEcmp);
  PacketPtr p = WirePacket(&f, 0);
  p->flow.dst_ip = 5;
  sw.Accept(std::move(p));
  EXPECT_EQ(sw.dropped_no_route(), 1u);
}

}  // namespace
}  // namespace juggler
