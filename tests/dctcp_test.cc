// ECN marking, DCTCP feedback, flowlet load balancing and SRPT marking —
// the paper's §2 extension points, built on the same substrate.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/net/link.h"
#include "src/net/load_balancer.h"
#include "src/qos/srpt_prioritizer.h"
#include "src/scenario/gro_factories.h"
#include "src/scenario/sampler.h"
#include "src/scenario/topologies.h"
#include "src/stats/stats.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

class CollectorSink : public PacketSink {
 public:
  void Accept(PacketPtr p) override { packets.push_back(std::move(p)); }
  std::vector<PacketPtr> packets;
};

TEST(EcnTest, MarksAboveThreshold) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink;
  LinkConfig cfg;
  cfg.rate_bps = 1 * kGbps;
  cfg.queue_limit_bytes = 100 * (kMss + kPerPacketWireOverhead);
  cfg.ecn = true;
  cfg.ecn_threshold_fill = 0.15;
  Link link(&loop, "l", cfg, &sink);
  for (Seq s = 0; s < 60; ++s) {
    PacketPtr p = f.Make();
    p->flow = TestFlow();
    p->seq = s * kMss;
    p->payload_len = kMss;
    link.Accept(std::move(p));
  }
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 60u);
  // Early arrivals (queue below 15%) unmarked; later ones marked.
  EXPECT_FALSE(sink.packets[0]->ce_mark);
  EXPECT_TRUE(sink.packets[40]->ce_mark);
  EXPECT_GT(link.stats().ecn_marks, 20u);
}

TEST(EcnTest, PureAcksNotMarked) {
  EventLoop loop;
  PacketFactory f;
  CollectorSink sink;
  LinkConfig cfg;
  cfg.rate_bps = 1 * kGbps;
  cfg.queue_limit_bytes = 10'000;
  cfg.ecn = true;
  cfg.ecn_threshold_fill = 0.0;
  Link link(&loop, "l", cfg, &sink);
  for (int i = 0; i < 20; ++i) {
    PacketPtr p = f.Make();
    p->flow = TestFlow();
    p->flags = kFlagAck;
    link.Accept(std::move(p));
  }
  loop.Run();
  for (const auto& p : sink.packets) {
    EXPECT_FALSE(p->ce_mark);
  }
}

TEST(DctcpTest, KeepsQueueShallow) {
  // Bulk flow into an ECN bottleneck: DCTCP should hold the standing queue
  // near the marking threshold; Reno/CUBIC fills until RED/limit.
  auto run = [](bool dctcp) {
    SimWorld world;
    // Hand-built: sender host -> bottleneck link (ECN) -> receiver host.
    Fabric fabric;
    LatchSink* to_sender = fabric.AddLatch();
    LinkConfig rev;
    rev.rate_bps = 10 * kGbps;
    Link* rev_link = fabric.AddLink(&world.loop, "rev", rev, to_sender);
    HostConfig hc;
    hc.gro_factory = MakeStandardGroFactory();
    hc.tcp.dctcp = dctcp;
    // Low interrupt moderation keeps the RTT (and so the BDP) small relative
    // to the marking threshold — DCTCP's K must sit above ~0.2 BDP to avoid
    // underutilisation.
    hc.rx.int_coalesce = Us(20);
    hc.ip = 2;
    hc.name = "rcv";
    Host* rcv = fabric.AddHost(&world.loop, &world.factory, &world.costs, hc, rev_link);
    LinkConfig fwd;
    fwd.rate_bps = 10 * kGbps;
    fwd.queue_limit_bytes = 500'000;
    fwd.ecn = true;
    Link* fwd_link = fabric.AddLink(&world.loop, "fwd", fwd, rcv->wire_in());
    hc.ip = 1;
    hc.name = "snd";
    Host* snd = fabric.AddHost(&world.loop, &world.factory, &world.costs, hc, fwd_link);
    to_sender->set_target(snd->wire_in());
    EndpointPair pair = ConnectHosts(snd, rcv, 1000, 2000);
    pair.a_to_b->SendForever();
    PercentileSampler queue_bytes;
    PeriodicTask sampler(&world.loop, Us(100), Ms(100),
                         [&] { queue_bytes.Add(static_cast<double>(fwd_link->queued_bytes())); });
    world.loop.RunUntil(Ms(100));
    struct Out {
      double p95_queue;
      double gbps;
      double alpha;
      uint64_t marks;
    };
    return Out{queue_bytes.Percentile(95),
               ToGbps(RateBps(static_cast<int64_t>(pair.b_to_a->bytes_delivered()),
                              world.loop.now())),
               pair.a_to_b->dctcp_alpha(), fwd_link->stats().ecn_marks};
  };
  const auto dctcp = run(true);
  const auto reno = run(false);
  // DCTCP sustains throughput with a much shallower queue.
  EXPECT_GT(dctcp.gbps, 8.5);
  EXPECT_GT(dctcp.marks, 0u);
  EXPECT_GT(dctcp.alpha, 0.0);
  EXPECT_LT(dctcp.p95_queue, reno.p95_queue * 0.6);
}

TEST(FlowletLbTest, BurstsStayTogether) {
  LoadBalancer lb(LbPolicy::kFlowlet, 4, 9);
  lb.set_flowlet_gap(Us(100));
  Packet p;
  p.flow = TestFlow();
  p.sent_time = Us(1);
  const size_t first = lb.PickPath(p);
  // Back-to-back packets (sub-gap spacing): same path.
  for (int i = 2; i <= 50; ++i) {
    p.sent_time = Us(i);
    EXPECT_EQ(lb.PickPath(p), first);
  }
}

TEST(FlowletLbTest, GapStartsNewFlowlet) {
  LoadBalancer lb(LbPolicy::kFlowlet, 16, 9);
  lb.set_flowlet_gap(Us(100));
  Packet p;
  p.flow = TestFlow();
  std::set<size_t> paths;
  TimeNs t = Us(1);
  for (int burst = 0; burst < 64; ++burst) {
    p.sent_time = t;
    paths.insert(lb.PickPath(p));
    t += Ms(1);  // > gap: re-hash
  }
  EXPECT_GT(paths.size(), 4u);  // re-hashed many times across 16 paths
}

TEST(FlowletLbTest, FlowsIndependent) {
  LoadBalancer lb(LbPolicy::kFlowlet, 2, 9);
  lb.set_flowlet_gap(Us(100));
  Packet a;
  a.flow = TestFlow(1, 1);
  Packet b;
  b.flow = TestFlow(2, 2);
  a.sent_time = Us(1);
  b.sent_time = Us(1);
  lb.PickPath(a);
  const size_t b_path = lb.PickPath(b);
  // Packets of b keep their path even while a churns.
  for (int i = 2; i < 20; ++i) {
    a.sent_time = Us(i);
    lb.PickPath(a);
    b.sent_time = Us(i);
    EXPECT_EQ(lb.PickPath(b), b_path);
  }
}

TEST(SrptTest, MarksHighWhenNearCompletion) {
  EventLoop loop;
  PacketFactory f;
  class NullWire : public PacketSink {
    void Accept(PacketPtr) override {}
  } wire;
  NicTx nic(&loop, &f, &wire);
  TcpConfig cfg;
  TcpEndpoint conn(&loop, cfg, TestFlow(), &nic);
  SrptPrioritizer srpt(&conn, 100'000);
  // Large backlog: low priority.
  conn.Send(5'000'000);
  EXPECT_EQ(srpt.Mark(), Priority::kLow);
  // Near completion (small remaining backlog): high priority.
  loop.RunUntil(Ms(1));
  // Drain the backlog artificially by letting the (black-holed) sends go
  // out; backlog shrinks as the window opens... instead test directly with
  // a fresh small-send connection.
  TcpEndpoint small(&loop, cfg, TestFlow(7, 7), &nic);
  SrptPrioritizer srpt_small(&small, 100'000);
  small.Send(10'000);
  EXPECT_EQ(srpt_small.Mark(), Priority::kHigh);
}

}  // namespace
}  // namespace juggler
