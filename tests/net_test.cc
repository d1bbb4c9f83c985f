#include <gtest/gtest.h>

#include <vector>

#include "src/net/link.h"
#include "src/net/load_balancer.h"
#include "src/net/stages.h"
#include "src/net/switch.h"
#include "src/sim/event_loop.h"
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
