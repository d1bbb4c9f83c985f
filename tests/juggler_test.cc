// Unit tests for the Juggler engine: the five-phase life cycle (Table 1),
// the flush conditions (Table 2), the worked examples of Figures 6-8, and
// the eviction policy of §4.3.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/juggler.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

GroHarness MakeJuggler(JugglerConfig config = {}) {
  return GroHarness(
      [config](const CpuCostModel* c) { return std::make_unique<Juggler>(c, config); });
}

Juggler* Engine(GroHarness& h) { return static_cast<Juggler*>(h.engine()); }

// ---------------------------------------------------------------- basics --

TEST(JugglerTest, InOrderBurstMergesLikeGro) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  for (int i = 0; i < 10; ++i) {
    h.Receive(MakeDataPacket(flow, static_cast<Seq>(i) * kMss, kMss));
  }
  EXPECT_TRUE(h.delivered().empty());
  // Held across the poll boundary (unlike standard GRO)...
  h.PollComplete();
  EXPECT_TRUE(h.delivered().empty());
  // ...until inseq_timeout passes.
  h.Advance(Us(20));
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, 10 * kMss);
  EXPECT_EQ(h.delivered()[0].mtu_count, 10u);
}

TEST(JugglerTest, InOrderFastPathCostsSameAsGro) {
  // §5.1.1: identical to standard GRO on in-order traffic — per-packet cost
  // must be exactly gro_per_packet once the flow exists.
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  for (int i = 1; i < 20; ++i) {
    const TimeNs cost = h.Receive(MakeDataPacket(flow, static_cast<Seq>(i) * kMss, kMss));
    EXPECT_EQ(cost, h.costs()->gro_per_packet);
  }
}

TEST(JugglerTest, ReorderedPacketsDeliveredInOrder) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  const Seq order[] = {0, 2, 1, 4, 3, 5};
  for (Seq s : order) {
    h.Receive(MakeDataPacket(flow, s * kMss, kMss));
  }
  h.Advance(Us(20));
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, 0u);
  EXPECT_EQ(h.delivered()[0].payload_len, 6 * kMss);
}

TEST(JugglerTest, SizeLimitFlushesEagerly) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  for (uint32_t i = 0; i < 45; ++i) {
    h.Receive(MakeDataPacket(flow, i * kMss, kMss));
  }
  // Table 2 row 2: full 64KB segment flushes without waiting for a timeout.
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, kMaxTsoPayload);
}

TEST(JugglerTest, PshFlushesEagerly) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Receive(MakeDataPacket(flow, kMss, 150, kFlagAck | kFlagPsh));
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, kMss + 150);
}

TEST(JugglerTest, PureAckBypassesFlowTable) {
  GroHarness h = MakeJuggler();
  h.Receive(MakeAckPacket(TestFlow(), 77));
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(Engine(h)->flow_table_size(), 0u);
}

// ----------------------------------------------------------- life cycle --

TEST(JugglerTest, PhaseProgressionBuildUpToPostMerge) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  EXPECT_EQ(Engine(h)->active_list_len(), 1u);  // build-up is in active list
  EXPECT_EQ(Engine(h)->inactive_list_len(), 0u);
  h.Advance(Us(20));
  h.PollComplete();  // inseq_timeout -> first flush -> post-merge
  EXPECT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(Engine(h)->active_list_len(), 0u);
  EXPECT_EQ(Engine(h)->inactive_list_len(), 1u);
}

TEST(JugglerTest, PostMergeFlowReactivatesOnNewData) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  EXPECT_EQ(Engine(h)->inactive_list_len(), 1u);
  h.Receive(MakeDataPacket(flow, kMss, kMss));  // reverse edge of §4.2.4
  EXPECT_EQ(Engine(h)->active_list_len(), 1u);
  EXPECT_EQ(Engine(h)->inactive_list_len(), 0u);
}

TEST(JugglerTest, BuildUpSeqNextGoesBackwards) {
  // Remark 1 / Figure 6 setup: first packet of a re-entering flow is likely
  // out of order; seq_next must learn the true minimum.
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 3 * kMss, kMss));  // "packet 3" first
  h.Receive(MakeDataPacket(flow, 5 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));  // seq_next moves back
  EXPECT_TRUE(h.delivered().empty());               // nothing flushed early
  h.Advance(Us(20));
  h.PollComplete();
  // Flushes the contiguous prefix [2,4) as one segment; 5 stays buffered.
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, 2 * kMss);
  EXPECT_EQ(h.delivered()[0].payload_len, 2 * kMss);
  EXPECT_EQ(Engine(h)->juggler_stats().seq_next_backward_moves, 1u);
  EXPECT_EQ(Engine(h)->active_list_len(), 1u);  // active merging (5 buffered)
}

TEST(JugglerTest, BuildUpDisabledFlushesEarlyPackets) {
  // Ablation: without the build-up phase, packet 2 (before the pinned
  // seq_next of 3) is flushed as a presumed retransmission.
  JugglerConfig config;
  config.enable_buildup_phase = false;
  GroHarness h = MakeJuggler(config);
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 3 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, 2 * kMss);
}

TEST(JugglerTest, Figure6RetransmissionNotBuffered) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  // Build up with 3, 5, 2 (in units of MSS).
  h.Receive(MakeDataPacket(flow, 3 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 5 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));
  h.Advance(Us(20));
  h.PollComplete();  // flush [2,4): seq_next = 4, active merging
  h.TakeDelivered();
  // Retransmitted packet 1 arrives: before seq_next, flushed immediately.
  h.Receive(MakeDataPacket(flow, 1 * kMss, kMss));
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, 1 * kMss);
  EXPECT_EQ(h.delivered()[0].mtu_count, 1u);
  EXPECT_EQ(
      h.engine()->stats().flush_by_reason[static_cast<int>(FlushReason::kSeqBeforeNext)], 1u);
}

TEST(JugglerTest, OfoTimeoutEntersLossRecovery) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  // Establish seq_next = 0 by flushing packet 0.
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  h.TakeDelivered();
  // Hole at kMss: packets 2, 3, 5 buffered.
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 3 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 5 * kMss, kMss));
  h.PollComplete();
  EXPECT_TRUE(h.delivered().empty());
  EXPECT_EQ(Engine(h)->loss_list_len(), 0u);
  h.Advance(Us(60));  // > ofo_timeout (50us)
  h.PollComplete();
  // Everything flushed (two runs: [2,4) and [5,6)); flow in loss recovery.
  EXPECT_EQ(h.delivered().size(), 2u);
  EXPECT_EQ(Engine(h)->loss_list_len(), 1u);
  EXPECT_EQ(Engine(h)->juggler_stats().ofo_timeout_events, 1u);
}

TEST(JugglerTest, Figure7LossRecoveryRoundTrip) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  // seq_next = 1 (in MSS units), packets 2, 3, 5 in the OOO queue.
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  h.TakeDelivered();
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 3 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 5 * kMss, kMss));
  h.Advance(Us(60));
  h.PollComplete();  // ofo_timeout: flush all, lost_seq = 1*kMss, seq_next = 6*kMss
  h.TakeDelivered();
  ASSERT_EQ(Engine(h)->loss_list_len(), 1u);
  // Packets 7 and 6 arrive: buffered / merged (6 == seq_next).
  h.Receive(MakeDataPacket(flow, 7 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 6 * kMss, kMss));
  EXPECT_EQ(Engine(h)->loss_list_len(), 1u);  // still in loss recovery
  // Packet 1 fills the hole: flushed directly, flow back to active list —
  // even though packet 4 never arrived (best-effort).
  h.Receive(MakeDataPacket(flow, 1 * kMss, kMss));
  EXPECT_EQ(Engine(h)->loss_list_len(), 0u);
  EXPECT_EQ(Engine(h)->active_list_len(), 1u);
  EXPECT_EQ(Engine(h)->juggler_stats().loss_recovery_exits, 1u);
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, 1 * kMss);
}

// -------------------------------------------------------------- timeouts --

TEST(JugglerTest, InseqTimeoutHonoredViaTimer) {
  JugglerConfig config;
  config.inseq_timeout = Us(15);
  GroHarness h = MakeJuggler(config);
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.PollComplete();  // arms the hrtimer
  EXPECT_NE(h.armed_timer(), GroEngine::kNoTimer);
  EXPECT_EQ(h.armed_timer(), Us(15));
  h.Advance(Us(15));
  EXPECT_TRUE(h.MaybeFireTimer());
  ASSERT_EQ(h.delivered().size(), 1u);
}

TEST(JugglerTest, OfoTimeoutUsesLongerDeadline) {
  JugglerConfig config;
  config.inseq_timeout = Us(15);
  config.ofo_timeout = Us(50);
  GroHarness h = MakeJuggler(config);
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  h.TakeDelivered();
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));  // hole at kMss
  h.PollComplete();
  // Deadline is flush_timestamp + ofo_timeout, not inseq_timeout.
  EXPECT_EQ(h.armed_timer(), Us(20) + Us(50));
}

TEST(JugglerTest, HoldsAcrossPollsUntilTimeout) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  for (int poll = 0; poll < 3; ++poll) {
    h.Advance(Us(4));
    h.PollComplete();
    EXPECT_TRUE(h.delivered().empty());
    h.Receive(MakeDataPacket(flow, static_cast<Seq>(poll + 1) * kMss, kMss));
  }
  h.Advance(Us(15));
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].mtu_count, 4u);  // merged across 4 polls
}

// -------------------------------------------------------------- eviction --

TEST(JugglerTest, TableBoundedAndInactiveEvictedFirst) {
  JugglerConfig config;
  config.max_flows = 4;
  GroHarness h = MakeJuggler(config);
  // Four flows, all flushed into post-merge (inactive).
  for (uint16_t i = 0; i < 4; ++i) {
    h.Receive(MakeDataPacket(TestFlow(i, 1), 0, kMss));
  }
  h.Advance(Us(20));
  h.PollComplete();
  EXPECT_EQ(Engine(h)->inactive_list_len(), 4u);
  // A fifth flow arrives: the oldest inactive flow is evicted.
  h.Receive(MakeDataPacket(TestFlow(100, 1), 0, kMss));
  EXPECT_EQ(Engine(h)->flow_table_size(), 4u);
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_inactive, 1u);
  EXPECT_EQ(h.engine()->stats().evictions, 1u);
}

TEST(JugglerTest, ActiveEvictedFifoWhenNoInactive) {
  JugglerConfig config;
  config.max_flows = 2;
  GroHarness h = MakeJuggler(config);
  // Two flows with buffered holes: both stay in the active list.
  h.Receive(MakeDataPacket(TestFlow(1, 1), 5 * kMss, kMss));
  h.Receive(MakeDataPacket(TestFlow(2, 1), 5 * kMss, kMss));
  EXPECT_EQ(Engine(h)->active_list_len(), 2u);
  h.Receive(MakeDataPacket(TestFlow(3, 1), 0, kMss));
  EXPECT_EQ(Engine(h)->flow_table_size(), 2u);
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_active, 1u);
  // The evicted flow's buffered packet was flushed, not dropped.
  bool found = false;
  for (const auto& s : h.delivered()) {
    found |= s.seq == 5 * kMss;
  }
  EXPECT_TRUE(found);
}

TEST(JugglerTest, LossRecoveryEvictedOnlyAsLastResort) {
  JugglerConfig config;
  config.max_flows = 2;
  config.ofo_timeout = Us(10);
  GroHarness h = MakeJuggler(config);
  // Drive both flows into loss recovery.
  for (uint16_t i = 1; i <= 2; ++i) {
    h.Receive(MakeDataPacket(TestFlow(i, 1), 0, kMss));
  }
  h.Advance(Us(20));
  h.PollComplete();
  h.TakeDelivered();
  for (uint16_t i = 1; i <= 2; ++i) {
    h.Receive(MakeDataPacket(TestFlow(i, 1), 3 * kMss, kMss));  // holes
  }
  h.Advance(Us(20));
  h.PollComplete();  // ofo timeout -> loss recovery for both
  EXPECT_EQ(Engine(h)->loss_list_len(), 2u);
  h.Receive(MakeDataPacket(TestFlow(9, 1), 0, kMss));
  EXPECT_EQ(Engine(h)->flow_table_size(), 2u);
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_loss, 1u);
}

TEST(JugglerTest, NoDataLossAcrossEvictionChurn) {
  // Hammer a tiny table with many flows; every payload byte must still come
  // out exactly once (eviction flushes, never drops).
  JugglerConfig config;
  config.max_flows = 4;
  GroHarness h = MakeJuggler(config);
  uint64_t sent = 0;
  for (int round = 0; round < 50; ++round) {
    for (uint16_t f = 0; f < 16; ++f) {
      h.Receive(MakeDataPacket(TestFlow(f, 1), static_cast<Seq>(round) * kMss, kMss));
      sent += kMss;
    }
    h.Advance(Us(5));
    h.PollComplete();
  }
  h.Advance(Ms(1));
  h.PollComplete();
  // Evict everything left by overflowing the table.
  for (uint16_t f = 100; f < 105; ++f) {
    h.Receive(MakeDataPacket(TestFlow(f, 1), 0, kMss));
    sent += kMss;
  }
  h.Advance(Ms(1));
  h.PollComplete();
  EXPECT_EQ(TotalPayload(h.delivered()), sent);
}

// ------------------------------------------------------------ edge cases --

TEST(JugglerTest, DuplicateOfBufferedPacketDeliveredDirect) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  h.TakeDelivered();
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));  // exact duplicate
  ASSERT_EQ(h.delivered().size(), 1u);              // passed up for TCP to dedup
  EXPECT_EQ(Engine(h)->juggler_stats().duplicate_packets, 1u);
}

TEST(JugglerTest, MetaMismatchSplitsRuns) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  auto p = MakeDataPacket(flow, kMss, kMss);
  p->ce_mark = true;
  h.Receive(std::move(p));
  h.Advance(Us(20));
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 2u);  // contiguous but unmergeable
  EXPECT_FALSE(h.delivered()[0].ce_mark);
  EXPECT_TRUE(h.delivered()[1].ce_mark);
}

TEST(JugglerTest, WrapAroundSequenceSpace) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  const Seq start = 0xffffffffu - 2 * kMss + 1;  // two MTUs before wrap
  h.Receive(MakeDataPacket(flow, start, kMss));
  h.Receive(MakeDataPacket(flow, start + 2 * kMss, kMss));  // past the wrap
  h.Receive(MakeDataPacket(flow, start + kMss, kMss));      // fills the gap
  h.Advance(Us(20));
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, start);
  EXPECT_EQ(h.delivered()[0].payload_len, 3 * kMss);
}

TEST(JugglerTest, TimerDisarmedWhenIdle) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();  // flow flushed to post-merge; nothing pending
  EXPECT_EQ(h.armed_timer(), GroEngine::kNoTimer);
}

TEST(JugglerTest, SynFinDeliveredDirect) {
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, 0, kFlagSyn));
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(Engine(h)->flow_table_size(), 0u);
}

TEST(JugglerTest, OooQueueRunsCoalesce) {
  // Runs that become contiguous coalesce, keeping the queue short — the
  // frags[]-style merging that bounds search cost (§3.2).
  GroHarness h = MakeJuggler();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  h.TakeDelivered();
  // Hole at kMss, then runs at 2,4,6; then 3 and 5 join them all.
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 4 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 6 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 3 * kMss, kMss));
  h.Receive(MakeDataPacket(flow, 5 * kMss, kMss));
  // Fill the hole: the whole [1,7) range must flush as ONE segment.
  h.Receive(MakeDataPacket(flow, kMss, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, 6 * kMss);
  EXPECT_EQ(h.delivered()[0].mtu_count, 6u);
}

TEST(JugglerTest, EvictionPrecedenceWithAllThreeClassesPresent) {
  // §4.3's full order in one table: with inactive, active, and loss-recovery
  // flows all present, evictions must consume every inactive flow first,
  // then actives in FIFO order, and touch loss recovery only when it is all
  // that remains.
  JugglerConfig config;
  config.max_flows = 3;
  config.ofo_timeout = Us(10);
  GroHarness h = MakeJuggler(config);
  // Flow 1 -> loss recovery: establish seq_next, open a hole, let ofo fire.
  h.Receive(MakeDataPacket(TestFlow(1, 1), 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  h.Receive(MakeDataPacket(TestFlow(1, 1), 3 * kMss, kMss));  // hole at kMss
  h.Advance(Us(20));
  h.PollComplete();
  ASSERT_EQ(Engine(h)->loss_list_len(), 1u);
  // Flow 2 -> inactive (flushed clean); flow 3 -> active (buffered run).
  h.Receive(MakeDataPacket(TestFlow(2, 1), 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  h.Receive(MakeDataPacket(TestFlow(3, 1), 5 * kMss, kMss));
  ASSERT_EQ(Engine(h)->inactive_list_len(), 1u);
  ASSERT_EQ(Engine(h)->active_list_len(), 1u);
  ASSERT_EQ(Engine(h)->flow_table_size(), 3u);
  // Arrival 4: evicts the inactive flow, never the active or loss one.
  h.Receive(MakeDataPacket(TestFlow(4, 1), 5 * kMss, kMss));
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_inactive, 1u);
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_active, 0u);
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_loss, 0u);
  // Arrival 5: no inactive flows remain; the OLDEST active (flow 3) goes.
  h.Receive(MakeDataPacket(TestFlow(5, 1), 5 * kMss, kMss));
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_active, 1u);
  // Arrivals 6, 7: actives keep draining FIFO; loss recovery untouched.
  h.Receive(MakeDataPacket(TestFlow(6, 1), 5 * kMss, kMss));
  h.Receive(MakeDataPacket(TestFlow(7, 1), 5 * kMss, kMss));
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_active, 3u);
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_loss, 0u);
  // Drive the surviving flows 6 and 7 into loss recovery too: flush their
  // runs (establishing seq_next), open holes, let ofo fire.
  h.Advance(Us(20));
  h.PollComplete();  // flows 6, 7 flush -> inactive
  h.Receive(MakeDataPacket(TestFlow(6, 1), 8 * kMss, kMss));  // hole at 6*kMss
  h.Receive(MakeDataPacket(TestFlow(7, 1), 8 * kMss, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  ASSERT_EQ(Engine(h)->loss_list_len(), 3u);
  // Arrival 8: only loss-recovery flows remain; §3.3's strict memory bound
  // now forces one out — the last resort.
  h.Receive(MakeDataPacket(TestFlow(8, 1), 0, kMss));
  EXPECT_EQ(Engine(h)->juggler_stats().evictions_loss, 1u);
  EXPECT_EQ(Engine(h)->flow_table_size(), 3u);
}

TEST(JugglerTest, EvictionFlushesEveryBufferedByte) {
  // FlushAll on eviction: the conservation counters must balance — every
  // payload byte that entered an OOO queue leaves through a delivery, even
  // for flows force-evicted with holes still open.
  JugglerConfig config;
  config.max_flows = 2;
  GroHarness h = MakeJuggler(config);
  // Each flow buffers three discontiguous runs, then eviction churn kicks
  // every flow out in turn.
  for (uint16_t f = 1; f <= 6; ++f) {
    for (Seq run = 1; run <= 5; run += 2) {
      h.Receive(MakeDataPacket(TestFlow(f, 1), run * kMss, kMss));
    }
  }
  h.PollComplete();
  const JugglerStats& stats = Engine(h)->juggler_stats();
  EXPECT_EQ(stats.evictions_active, 4u);
  EXPECT_EQ(stats.buffered_bytes_in, 6u * 3u * kMss);
  // The two live flows still hold their runs; everything else flushed.
  const Juggler::AuditView view = Engine(h)->Audit();
  uint64_t held = 0;
  for (const auto& flow : view.flows) {
    held += flow.buffered_bytes;
  }
  EXPECT_EQ(held, 2u * 3u * kMss);
  EXPECT_EQ(stats.buffered_bytes_out, stats.buffered_bytes_in - held);
  // And the evicted flows' bytes reached the host as segments.
  EXPECT_EQ(TotalPayload(h.delivered()), 4u * 3u * kMss);
}

// ------------------------------------------------ OOO queue search cost --

// The §3.2 OOO queue as the paper describes it: a sorted list of runs
// searched from the tail, one step per run passed. It models one build-up
// flow of full-MSS ACK packets without flags, so no run fills and nothing
// flushes before a timeout. Juggler finds the same insert point by binary
// search and must charge exactly this walk.
struct LinearScanQueue {
  struct Run {
    Seq start;
    uint32_t len;
  };
  CpuCostModel costs;
  Seq seq_next = 0;
  std::vector<Run> runs;

  uint64_t buffered() const {
    uint64_t bytes = 0;
    for (const Run& run : runs) {
      bytes += run.len;
    }
    return bytes;
  }

  // Modeled cost of Receive() for a packet of an existing flow.
  TimeNs Receive(Seq seq) {
    TimeNs cost = costs.gro_per_packet;
    if (!runs.empty() && runs[0].start == seq_next && seq == runs[0].start + runs[0].len) {
      runs[0].len += kMss;  // head-run extension: no search
      Coalesce(0);
      return cost;
    }
    cost += costs.juggler_ooo_insert;
    size_t idx = runs.size();
    while (idx > 0 && SeqAfter(runs[idx - 1].start, seq)) {
      --idx;
      cost += costs.juggler_ooo_search_per_run;
    }
    if (idx > 0 && runs[idx - 1].start + runs[idx - 1].len == seq) {
      runs[idx - 1].len += kMss;
      Coalesce(idx - 1);
      return cost;
    }
    runs.insert(runs.begin() + static_cast<long>(idx), Run{seq, kMss});
    Coalesce(idx);
    return cost;
  }

  void Coalesce(size_t i) {
    while (i + 1 < runs.size() && runs[i].start + runs[i].len == runs[i + 1].start) {
      runs[i].len += runs[i + 1].len;
      runs.erase(runs.begin() + static_cast<long>(i) + 1);
    }
  }
};

TEST(JugglerTest, OooQueueAcrossSeqWrapChargesTheTailwardWalk) {
  // Packet k carries seq base + k*MSS; packet 20 sits at seq 0, so the
  // queue spans the 2^32 wrap. Every even packet arrives first (20 runs
  // split by one-packet holes), then holes fill at the back, around the
  // wrap, at the front and at the head, and new runs open past the tail
  // and between two runs.
  const Seq base = 0u - 20u * kMss;
  const FiveTuple flow = TestFlow();
  GroHarness h = MakeJuggler();
  LinearScanQueue ref;
  ref.seq_next = base;
  ref.runs.push_back({base, kMss});
  h.Receive(MakeDataPacket(flow, base, kMss));

  std::vector<uint32_t> order;
  for (uint32_t k = 2; k <= 38; k += 2) {
    order.push_back(k);
  }
  for (uint32_t k : {37u, 19u, 21u, 3u, 1u, 60u, 50u, 5u, 29u}) {
    order.push_back(k);
  }
  for (uint32_t k : order) {
    SCOPED_TRACE("packet " + std::to_string(k));
    const Seq seq = base + k * kMss;
    const TimeNs expected_cost = ref.Receive(seq);
    EXPECT_EQ(h.Receive(MakeDataPacket(flow, seq, kMss)), expected_cost);
    const Juggler::AuditView view = Engine(h)->Audit();
    ASSERT_EQ(view.flows.size(), 1u);
    EXPECT_EQ(view.flows[0].queue_runs, ref.runs.size());
    EXPECT_EQ(view.flows[0].buffered_bytes, ref.buffered());
    EXPECT_EQ(view.flows[0].seq_next, ref.seq_next);
  }
  EXPECT_TRUE(h.delivered().empty());
  EXPECT_EQ(ref.runs.size(), 15u);

  // The timeouts flush every run, in sequence order, as it stands: the
  // in-sequence head on inseq_timeout, then the rest on ofo_timeout.
  for (int poll = 0; poll < 2; ++poll) {
    h.Advance(Ms(1));
    h.PollComplete();
  }
  ASSERT_EQ(h.delivered().size(), ref.runs.size());
  for (size_t i = 0; i < ref.runs.size(); ++i) {
    EXPECT_EQ(h.delivered()[i].seq, ref.runs[i].start) << "segment " << i;
    EXPECT_EQ(h.delivered()[i].payload_len, ref.runs[i].len) << "segment " << i;
  }
}

}  // namespace
}  // namespace juggler
