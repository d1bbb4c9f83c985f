#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/juggler.h"
#include "src/gro/baseline_gro.h"
#include "src/nic/nic_rx.h"
#include "src/nic/nic_tx.h"
#include "src/sim/event_loop.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

class SegmentCollector : public SegmentSink {
 public:
  explicit SegmentCollector(EventLoop* loop) : loop_(loop) {}
  void OnSegment(Segment segment) override {
    times.push_back(loop_->now());
    segments.push_back(std::move(segment));
  }
  std::vector<Segment> segments;
  std::vector<TimeNs> times;

 private:
  EventLoop* loop_;
};

class PacketCollector : public PacketSink {
 public:
  void Accept(PacketPtr p) override { packets.push_back(std::move(p)); }
  std::vector<PacketPtr> packets;
};

NicRx::GroFactory StandardFactory() {
  return [](const CpuCostModel* c) -> std::unique_ptr<GroEngine> {
    return std::make_unique<StandardGro>(c);
  };
}

NicRx::GroFactory JugglerFactory(JugglerConfig config = {}) {
  return [config](const CpuCostModel* c) -> std::unique_ptr<GroEngine> {
    return std::make_unique<Juggler>(c, config);
  };
}

PacketPtr Wire(PacketFactory* f, Seq seq, uint32_t len = kMss) {
  PacketPtr p = f->Make();
  p->flow = TestFlow();
  p->seq = seq;
  p->payload_len = len;
  p->flags = kFlagAck;
  return p;
}

// ---- NicRx ----

TEST(NicRxTest, FirstPacketInterruptsImmediately) {
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  nic.Accept(Wire(&f, 0));
  loop.Run();
  // Delivered after (zero wait) + poll overhead + per-packet costs.
  ASSERT_EQ(sink.segments.size(), 1u);
  EXPECT_LT(sink.times[0], Us(5));
  EXPECT_EQ(nic.stats().interrupts, 1u);
}

TEST(NicRxTest, InterruptModerationBatches) {
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  cfg.int_coalesce = Us(100);
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  // 50 packets spaced 1us (line-rate-ish): the first interrupt fires at t=0
  // and NAPI stays in polling mode while packets keep landing, so the whole
  // burst is one or two polling sessions and GRO merges it into large
  // segments (45-MTU cap).
  for (Seq s = 0; s < 50; ++s) {
    loop.Schedule(s * Us(1), [&nic, &f, s] { nic.Accept(Wire(&f, s * kMss)); });
  }
  loop.Run();
  EXPECT_LE(nic.stats().interrupts, 2u);
  // GRO flushes per poll round, so the burst splits across a handful of
  // rounds — far fewer segments than packets.
  EXPECT_LE(sink.segments.size(), 25u);
  EXPECT_EQ(TotalPayload(sink.segments), 50u * kMss);
}

TEST(NicRxTest, ChargesRxCore) {
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  for (Seq s = 0; s < 10; ++s) {
    nic.Accept(Wire(&f, s * kMss));
  }
  loop.Run();
  // At least driver+gro per packet plus poll overhead.
  EXPECT_GE(nic.rx_core(0)->busy_ns(),
            10 * (costs.driver_per_packet + costs.gro_per_packet) + costs.napi_poll_overhead);
}

TEST(NicRxTest, SegmentsDeliveredAfterCpuWork) {
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  nic.Accept(Wire(&f, 0));
  loop.Run();
  ASSERT_EQ(sink.times.size(), 1u);
  EXPECT_GE(sink.times[0], costs.napi_poll_overhead + costs.driver_per_packet);
}

TEST(NicRxTest, RingOverflowDrops) {
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  cfg.ring_capacity = 8;
  cfg.int_coalesce = Ms(10);  // hold off polling so the ring fills
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  nic.Accept(Wire(&f, 0));  // first interrupt fires immediately though
  loop.RunSteps(1);
  // Now stuff the ring between polls.
  for (Seq s = 1; s < 20; ++s) {
    nic.Accept(Wire(&f, s * kMss));
  }
  EXPECT_GT(nic.stats().ring_drops, 0u);
}

TEST(NicRxTest, RssSpreadsFlowsAcrossQueues) {
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  cfg.num_queues = 4;
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  for (uint16_t port = 0; port < 64; ++port) {
    PacketPtr p = f.Make();
    p->flow = TestFlow(port, 80);
    p->payload_len = kMss;
    p->flags = kFlagAck;
    nic.Accept(std::move(p));
  }
  loop.Run();
  int queues_used = 0;
  for (size_t q = 0; q < 4; ++q) {
    queues_used += nic.gro(q)->stats().packets_in > 0 ? 1 : 0;
  }
  EXPECT_EQ(queues_used, 4);
  EXPECT_EQ(sink.segments.size() > 0, true);
}

TEST(NicRxTest, ForceQueuePinsAllFlows) {
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  cfg.num_queues = 4;
  cfg.force_queue = 2;
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  for (uint16_t port = 0; port < 16; ++port) {
    PacketPtr p = f.Make();
    p->flow = TestFlow(port, 80);
    p->payload_len = kMss;
    p->flags = kFlagAck;
    nic.Accept(std::move(p));
  }
  loop.Run();
  EXPECT_EQ(nic.gro(2)->stats().packets_in, 16u);
  EXPECT_EQ(nic.gro(0)->stats().packets_in, 0u);
}

TEST(NicRxTest, JugglerTimerFiresThroughNic) {
  // The hrtimer path: in-sequence data held by Juggler must flush via the
  // NIC-armed timer even if no further packets or polls happen.
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(15);
  NicRx nic(&loop, &costs, cfg, JugglerFactory(jcfg), &sink);
  nic.Accept(Wire(&f, 0));
  loop.Run();  // runs until the timer fires and the flush completes
  ASSERT_EQ(sink.segments.size(), 1u);
  EXPECT_GE(sink.times[0], Us(15));
  EXPECT_LT(sink.times[0], Us(40));
}

TEST(NicRxTest, JugglerReorderAbsorbedInsideOnePoll) {
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  NicRx nic(&loop, &costs, cfg, JugglerFactory(), &sink);
  const Seq order[] = {0, 2, 1, 4, 3, 5};
  for (Seq s : order) {
    nic.Accept(Wire(&f, s * kMss));
  }
  loop.Run();
  ASSERT_EQ(sink.segments.size(), 1u);  // one in-order segment
  EXPECT_EQ(sink.segments[0].payload_len, 6 * kMss);
}

// ---- NAPI edge cases ----

TEST(NicRxTest, BudgetExhaustionMidBatchSplitsPollRounds) {
  // 160 packets against the 64-packet budget: the NAPI loop must cut the
  // batch at the budget boundary, count the exhaustion, re-poll, and still
  // deliver every byte (budget caps latency per round, never drops).
  static_assert(NicRx::kNapiBudget == 64);
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  cfg.int_coalesce = Ms(10);  // one interrupt; the burst drains via re-polls
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  nic.Accept(Wire(&f, 0));
  loop.RunSteps(1);  // first interrupt fired; now stuff the ring between polls
  for (Seq s = 1; s < 160; ++s) {
    nic.Accept(Wire(&f, s * kMss));
  }
  loop.Run();
  EXPECT_GT(nic.stats().napi_budget_exhausted, 0u);
  EXPECT_GT(nic.stats().polls, 2u) << "a 160-packet ring cannot drain in <= 2 rounds of 64";
  EXPECT_EQ(nic.stats().ring_drops, 0u);
  EXPECT_EQ(TotalPayload(sink.segments), 160u * kMss);
}

TEST(NicRxTest, CoalesceTimerFiresAtBatchBoundary) {
  // A packet landing inside the coalescing window arms the deferred
  // interrupt; a second batch arriving exactly at that deadline must ride
  // the armed interrupt (not arm another, not get stranded).
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg;
  cfg.int_coalesce = Us(100);
  NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
  nic.Accept(Wire(&f, 0));  // interrupt at t=0
  // Arrives after the first poll session ended but inside tau0: deferred.
  loop.Schedule(Us(40), [&] { nic.Accept(Wire(&f, 1 * kMss)); });
  // A batch landing exactly at the armed deadline (t = 100us).
  for (Seq s = 2; s < 6; ++s) {
    loop.Schedule(Us(100), [&nic, &f, s] { nic.Accept(Wire(&f, s * kMss)); });
  }
  loop.Run();
  EXPECT_GT(nic.stats().coalesce_arms, 0u) << "the 40us packet must defer behind tau0";
  EXPECT_EQ(nic.stats().interrupts, 2u)
      << "the boundary batch must ride the armed interrupt";
  EXPECT_EQ(TotalPayload(sink.segments), 6u * kMss);
}

TEST(NicRxTest, RingTailDropInterleavedWithPerPacketDispatch) {
  // Tail drops with the per-packet reference arm on: the dropped packets
  // vanish at the ring (counted), and everything the ring accepted is
  // delivered through the one-packet-at-a-time GRO path — byte-identical
  // accounting to the batched arm.
  auto run = [](bool per_packet) {
    EventLoop loop;
    PacketFactory f;
    CpuCostModel costs;
    SegmentCollector sink(&loop);
    NicRxConfig cfg;
    cfg.ring_capacity = 8;
    cfg.int_coalesce = Ms(10);
    cfg.per_packet_dispatch = per_packet;
    NicRx nic(&loop, &costs, cfg, StandardFactory(), &sink);
    nic.Accept(Wire(&f, 0));
    loop.RunSteps(1);
    for (Seq s = 1; s < 20; ++s) {
      nic.Accept(Wire(&f, s * kMss));
    }
    loop.Run();
    EXPECT_GT(nic.stats().ring_drops, 0u);
    EXPECT_EQ(TotalPayload(sink.segments),
              (nic.stats().packets_in - nic.stats().ring_drops) * kMss)
        << "per_packet=" << per_packet;
    return std::make_pair(nic.stats().ring_drops, TotalPayload(sink.segments));
  };
  const auto batched = run(false);
  const auto per_packet = run(true);
  EXPECT_EQ(batched, per_packet) << "dispatch mode must not change drop accounting";
}

// ---- CorecRx ----

NicRxConfig CorecConfig() {
  NicRxConfig cfg;
  cfg.driver = RxDriverKind::kCorec;
  return cfg;
}

TEST(CorecRxTest, ReorderAbsorbedThroughHandoff) {
  // The concurrent claim/commit machinery must hand GRO the ring order:
  // Juggler then absorbs the wire reorder exactly as it does behind NAPI.
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  std::unique_ptr<RxDriver> nic =
      MakeRxDriver(&loop, &costs, CorecConfig(), JugglerFactory(), &sink);
  const Seq order[] = {0, 2, 1, 4, 3, 5};
  for (Seq s : order) {
    nic->Accept(Wire(&f, s * kMss));
  }
  loop.Run();
  ASSERT_EQ(sink.segments.size(), 1u);
  EXPECT_EQ(sink.segments[0].payload_len, 6 * kMss);
  ASSERT_NE(nic->corec_stats(), nullptr);
  EXPECT_EQ(nic->corec_stats()->claimed_packets, 6u);
}

TEST(CorecRxTest, OutOfOrderCommitsAreCountedAndReordered) {
  // 40 packets against 32-descriptor claim windows: the first consumer
  // claims 32 and the second the remaining 8. The short window completes
  // first, so its commit is out of order, its slots park behind the
  // incomplete head (a stall), and the hand-off stage must still feed GRO
  // the full burst in ring order.
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  std::unique_ptr<RxDriver> nic =
      MakeRxDriver(&loop, &costs, CorecConfig(), StandardFactory(), &sink);
  for (Seq s = 0; s < 40; ++s) {
    nic->Accept(Wire(&f, s * kMss));
  }
  loop.Run();
  const CorecRxStats& cs = *nic->corec_stats();
  EXPECT_EQ(cs.claimed_packets, 40u);
  EXPECT_EQ(cs.claims, 2u) << "one window of 32, one of 8";
  EXPECT_EQ(cs.claims, cs.commits) << "every claimed window must commit";
  EXPECT_GT(cs.ooo_commits, 0u) << "the short window must complete first";
  EXPECT_GT(cs.handoff_stalls, 0u);
  EXPECT_GE(cs.ooo_depth_max, 1u);
  EXPECT_EQ(cs.wedged, 0u);
  EXPECT_EQ(TotalPayload(sink.segments), 40u * kMss) << "nothing may strand in the slots";
}

TEST(CorecRxTest, JugglerTimerFiresThroughHandoffCore) {
  // The hrtimer path behind COREC: in-sequence data held by Juggler must
  // flush via the timer even if no further packets or hand-offs happen, and
  // reach the sink only after the flush work is paid on the hand-off core.
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(15);
  std::unique_ptr<RxDriver> nic =
      MakeRxDriver(&loop, &costs, CorecConfig(), JugglerFactory(jcfg), &sink);
  nic->Accept(Wire(&f, 0));
  loop.RunUntil(Us(10));  // claimed, committed and handed to GRO, still held
  ASSERT_TRUE(sink.segments.empty());
  const TimeNs deadline = static_cast<Juggler*>(nic->gro(0))->armed_deadline();
  EXPECT_GE(deadline, Us(15));
  const TimeNs busy_before = nic->rx_core(0)->busy_ns();
  loop.Run();  // runs until the timer fires and the flush completes
  ASSERT_EQ(sink.segments.size(), 1u);
  const TimeNs charged = nic->rx_core(0)->busy_ns() - busy_before;
  EXPECT_GT(charged, 0);
  EXPECT_EQ(sink.times[0], deadline + charged) << "the idle hand-off core pays first";
  EXPECT_LT(sink.times[0], Us(40));
  EXPECT_EQ(nic->TotalGroStats().flush_by_reason[static_cast<int>(FlushReason::kInseqTimeout)],
            1u);
}

TEST(CorecRxTest, FlowCapEvictsHeldRunThroughHandoffCore) {
  // ApplyGroFlowCap behind COREC: shrinking the flow table below its
  // occupancy evicts a held run, which reaches the sink only after the
  // eviction work is paid on the hand-off core.
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Ms(10);  // nothing flushes on its own within the test
  jcfg.ofo_timeout = Ms(10);
  std::unique_ptr<RxDriver> nic =
      MakeRxDriver(&loop, &costs, CorecConfig(), JugglerFactory(jcfg), &sink);
  nic->Accept(Wire(&f, 0));
  PacketPtr other = Wire(&f, 0);
  other->flow = TestFlow(1001, 2000);
  nic->Accept(std::move(other));
  loop.RunUntil(Us(100));
  ASSERT_TRUE(sink.segments.empty()) << "both flows' runs are held";
  const TimeNs busy_before = nic->rx_core(0)->busy_ns();
  nic->ApplyGroFlowCap(1);
  loop.RunUntil(Us(200));
  ASSERT_EQ(sink.segments.size(), 1u) << "exactly one flow is evicted";
  EXPECT_EQ(sink.segments[0].payload_len, kMss);
  const TimeNs charged = nic->rx_core(0)->busy_ns() - busy_before;
  EXPECT_GT(charged, 0);
  EXPECT_EQ(sink.times[0], Us(100) + charged) << "the idle hand-off core pays first";
  EXPECT_EQ(nic->TotalGroStats().flush_by_reason[static_cast<int>(FlushReason::kEviction)], 1u);
}

TEST(CorecRxTest, MatchesRssDeliveryByteForByte) {
  auto run = [](NicRxConfig cfg) {
    EventLoop loop;
    PacketFactory f;
    CpuCostModel costs;
    SegmentCollector sink(&loop);
    std::unique_ptr<RxDriver> nic =
        MakeRxDriver(&loop, &costs, cfg, JugglerFactory(), &sink);
    for (Seq s = 0; s < 30; ++s) {
      nic->Accept(Wire(&f, s * kMss));
    }
    loop.Run();
    return TotalPayload(sink.segments);
  };
  EXPECT_EQ(run(NicRxConfig{}), run(CorecConfig()));
}

TEST(CorecRxTest, WedgePlantStallsHandoffPermanently) {
  // debug_corec_wedge: the first stall (completed slots parked behind an
  // incomplete head window) wedges the hand-off stage for good —
  // claimed packets never reach GRO again. This is the defect the
  // rx-conformance forensics tests hunt end to end.
  EventLoop loop;
  PacketFactory f;
  CpuCostModel costs;
  SegmentCollector sink(&loop);
  NicRxConfig cfg = CorecConfig();
  cfg.debug_corec_wedge = true;
  std::unique_ptr<RxDriver> nic =
      MakeRxDriver(&loop, &costs, cfg, StandardFactory(), &sink);
  for (Seq s = 0; s < 40; ++s) {
    nic->Accept(Wire(&f, s * kMss));
  }
  loop.Run();
  EXPECT_EQ(nic->corec_stats()->wedged, 1u);
  EXPECT_LT(TotalPayload(sink.segments), 40u * kMss)
      << "a wedged hand-off cannot have delivered the full burst";
}

TEST(CorecRxTest, ParseAndNameRoundTrip) {
  RxDriverKind kind = RxDriverKind::kRss;
  EXPECT_TRUE(ParseRxDriverKind("corec", &kind));
  EXPECT_EQ(kind, RxDriverKind::kCorec);
  EXPECT_TRUE(ParseRxDriverKind("rss", &kind));
  EXPECT_EQ(kind, RxDriverKind::kRss);
  EXPECT_FALSE(ParseRxDriverKind("napi", &kind));
  EXPECT_STREQ(RxDriverKindName(RxDriverKind::kCorec), "corec");
  EXPECT_STREQ(RxDriverKindName(RxDriverKind::kRss), "rss");
}

// ---- NicTx ----

TEST(NicTxTest, SegmentsBurstIntoMtus) {
  EventLoop loop;
  PacketFactory f;
  PacketCollector wire;
  NicTx tx(&loop, &f, &wire);
  TsoBurst burst;
  burst.flow = TestFlow();
  burst.seq = 1000;
  burst.len = 3 * kMss + 100;
  burst.flags = kFlagAck | kFlagPsh;
  tx.SendBurst(burst);
  ASSERT_EQ(wire.packets.size(), 4u);
  EXPECT_EQ(wire.packets[0]->seq, 1000u);
  EXPECT_EQ(wire.packets[1]->seq, 1000u + kMss);
  EXPECT_EQ(wire.packets[3]->payload_len, 100u);
  // PSH only on the last packet.
  EXPECT_EQ(wire.packets[0]->flags & kFlagPsh, 0);
  EXPECT_NE(wire.packets[3]->flags & kFlagPsh, 0);
  // All packets share the burst's tso_id.
  EXPECT_EQ(wire.packets[0]->tso_id, wire.packets[3]->tso_id);
}

TEST(NicTxTest, DistinctBurstsGetDistinctTsoIds) {
  EventLoop loop;
  PacketFactory f;
  PacketCollector wire;
  NicTx tx(&loop, &f, &wire);
  TsoBurst burst;
  burst.flow = TestFlow();
  burst.len = kMss;
  tx.SendBurst(burst);
  burst.seq = kMss;
  tx.SendBurst(burst);
  EXPECT_NE(wire.packets[0]->tso_id, wire.packets[1]->tso_id);
}

TEST(NicTxTest, MarkerSetsPerPacketPriority) {
  EventLoop loop;
  PacketFactory f;
  PacketCollector wire;
  NicTx tx(&loop, &f, &wire);
  int calls = 0;
  std::function<Priority()> marker = [&calls] {
    return (calls++ % 2 == 0) ? Priority::kHigh : Priority::kLow;
  };
  TsoBurst burst;
  burst.flow = TestFlow();
  burst.len = 4 * kMss;
  burst.marker = &marker;
  tx.SendBurst(burst);
  ASSERT_EQ(wire.packets.size(), 4u);
  EXPECT_EQ(wire.packets[0]->priority, Priority::kHigh);
  EXPECT_EQ(wire.packets[1]->priority, Priority::kLow);
  EXPECT_EQ(calls, 4);
}

TEST(NicTxTest, SendAckIsPureAck) {
  EventLoop loop;
  PacketFactory f;
  PacketCollector wire;
  NicTx tx(&loop, &f, &wire);
  tx.SendAck(TestFlow(), 100, 5000, 1 << 20, Priority::kHigh);
  ASSERT_EQ(wire.packets.size(), 1u);
  EXPECT_TRUE(wire.packets[0]->is_pure_ack());
  EXPECT_EQ(wire.packets[0]->ack_seq, 5000u);
  EXPECT_EQ(wire.packets[0]->ack_rwnd, 1u << 20);
  EXPECT_EQ(wire.packets[0]->priority, Priority::kHigh);
}

}  // namespace
}  // namespace juggler
