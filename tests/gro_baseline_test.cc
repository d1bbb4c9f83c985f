#include <gtest/gtest.h>

#include <memory>

#include "src/gro/baseline_gro.h"
#include "src/gro/presto_gro.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

GroHarness MakeStandard() {
  return GroHarness([](const CpuCostModel* c) { return std::make_unique<StandardGro>(c); });
}

GroHarness MakeLinked() {
  return GroHarness([](const CpuCostModel* c) { return std::make_unique<LinkedListGro>(c); });
}

GroHarness MakePresto() {
  return GroHarness(
      [](const CpuCostModel* c) { return std::make_unique<PrestoGro>(c, PrestoGroConfig{}); });
}

TEST(StandardGroTest, MergesInOrderBurst) {
  GroHarness h = MakeStandard();
  const FiveTuple flow = TestFlow();
  for (int i = 0; i < 10; ++i) {
    h.Receive(MakeDataPacket(flow, static_cast<Seq>(i) * kMss, kMss));
  }
  EXPECT_TRUE(h.delivered().empty());  // held until poll end
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, 10 * kMss);
  EXPECT_EQ(h.delivered()[0].mtu_count, 10u);
  EXPECT_EQ(h.engine()->stats().AvgBatchingExtent(), 10.0);
}

TEST(StandardGroTest, OutOfOrderPacketFlushesHeldSegment) {
  GroHarness h = MakeStandard();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Receive(MakeDataPacket(flow, kMss, kMss));
  // Gap: packet 3 skipped, packet 4 arrives.
  h.Receive(MakeDataPacket(flow, 3 * kMss, kMss));
  ASSERT_EQ(h.delivered().size(), 1u);  // the [0,2) segment flushed
  EXPECT_EQ(h.delivered()[0].payload_len, 2 * kMss);
  EXPECT_EQ(h.engine()->stats().ooo_packets, 1u);
  h.PollComplete();
  EXPECT_EQ(h.delivered().size(), 2u);
}

TEST(StandardGroTest, AlternatingReorderKillsBatching) {
  // The §3 pathology: every other packet out of sequence -> every arrival
  // flushes.
  GroHarness h = MakeStandard();
  const FiveTuple flow = TestFlow();
  const Seq seqs[] = {0, 2, 1, 4, 3, 6, 5, 8, 7, 9};
  for (Seq s : seqs) {
    h.Receive(MakeDataPacket(flow, s * kMss, kMss));
  }
  h.PollComplete();
  EXPECT_GE(h.delivered().size(), 8u);
  EXPECT_LT(h.engine()->stats().AvgBatchingExtent(), 1.5);
}

TEST(StandardGroTest, SizeLimitFlushesAt64K) {
  GroHarness h = MakeStandard();
  const FiveTuple flow = TestFlow();
  for (uint32_t i = 0; i < 46; ++i) {
    h.Receive(MakeDataPacket(flow, i * kMss, kMss));
  }
  // 45 MTUs fill one segment; the 46th starts a new one.
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, kMaxTsoPayload);
  h.PollComplete();
  EXPECT_EQ(h.delivered().size(), 2u);
}

TEST(StandardGroTest, PshFlushesImmediately) {
  GroHarness h = MakeStandard();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Receive(MakeDataPacket(flow, kMss, kMss, kFlagAck | kFlagPsh));
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, 2 * kMss);
}

TEST(StandardGroTest, PureAcksPassThrough) {
  GroHarness h = MakeStandard();
  h.Receive(MakeAckPacket(TestFlow(), 1000));
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, 0u);
  EXPECT_EQ(h.delivered()[0].ack_seq, 1000u);
  EXPECT_EQ(h.engine()->stats().acks_in, 1u);
}

TEST(StandardGroTest, FlowsAreIndependent) {
  GroHarness h = MakeStandard();
  const FiveTuple f1 = TestFlow(1, 1);
  const FiveTuple f2 = TestFlow(2, 2);
  h.Receive(MakeDataPacket(f1, 0, kMss));
  h.Receive(MakeDataPacket(f2, 5000, kMss));
  h.Receive(MakeDataPacket(f1, kMss, kMss));
  h.PollComplete();
  EXPECT_EQ(h.delivered().size(), 2u);
}

TEST(StandardGroTest, MetaMismatchSplitsSegments) {
  GroHarness h = MakeStandard();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  auto p = MakeDataPacket(flow, kMss, kMss);
  p->ce_mark = true;  // CE transition cannot be merged away
  h.Receive(std::move(p));
  ASSERT_EQ(h.delivered().size(), 1u);
  h.PollComplete();
  EXPECT_EQ(h.delivered().size(), 2u);
  EXPECT_TRUE(h.delivered()[1].ce_mark);
}

TEST(LinkedListGroTest, BatchesDespiteReorder) {
  GroHarness h = MakeLinked();
  const FiveTuple flow = TestFlow();
  const Seq seqs[] = {0, 2, 1, 4, 3};
  for (Seq s : seqs) {
    h.Receive(MakeDataPacket(flow, s * kMss, kMss));
  }
  EXPECT_TRUE(h.delivered().empty());  // chained, not flushed
  h.PollComplete();
  // Delivered as runs in arrival order; order correction is TCP's problem.
  EXPECT_GE(h.delivered().size(), 2u);
  EXPECT_EQ(TotalPayload(h.delivered()), 5u * kMss);
}

TEST(LinkedListGroTest, CostsMoreThanStandardInOrder) {
  // §3.1: linked-list batching costs ~50% more CPU even on in-order traffic.
  GroHarness std_h = MakeStandard();
  GroHarness ll_h = MakeLinked();
  const FiveTuple flow = TestFlow();
  TimeNs std_cost = 0;
  TimeNs ll_cost = 0;
  for (int i = 0; i < 100; ++i) {
    std_cost += std_h.Receive(MakeDataPacket(flow, static_cast<Seq>(i) * kMss, kMss));
    ll_cost += ll_h.Receive(MakeDataPacket(flow, static_cast<Seq>(i) * kMss, kMss));
  }
  EXPECT_GT(ll_cost, std_cost * 5 / 4);
}

TEST(PrestoGroTest, ReordersAcrossRuns) {
  GroHarness h = MakePresto();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));  // early
  h.Receive(MakeDataPacket(flow, kMss, kMss));      // fills the gap
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].payload_len, 3 * kMss);
}

TEST(PrestoGroTest, FlowTableGrowsWithoutBound) {
  // The §3.3 criticism: Presto keeps state for every connection it sees.
  GroHarness h = MakePresto();
  auto* presto = static_cast<PrestoGro*>(h.engine());
  for (uint16_t i = 0; i < 500; ++i) {
    h.Receive(MakeDataPacket(TestFlow(i, 1), 0, kMss));
    h.PollComplete();
  }
  EXPECT_EQ(presto->flow_table_size(), 500u);
}

TEST(PrestoGroTest, OooFlushedAfterCoarseTimeout) {
  GroHarness h = MakePresto();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 0, kMss));
  h.PollComplete();
  h.TakeDelivered();
  h.Receive(MakeDataPacket(flow, 2 * kMss, kMss));  // hole at kMss
  h.PollComplete();
  EXPECT_TRUE(h.delivered().empty());
  h.Advance(Ms(2));  // beyond the 1ms coarse timeout
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, 2 * kMss);
}

TEST(PrestoGroTest, OooBufferSurvivesSequenceWrap) {
  // Regression: the OOO buffer used to be keyed by raw sequence number, so a
  // run buffered just past the 2^32 wrap (tiny uint32_t) sorted BEFORE a run
  // buffered just under it (huge uint32_t). DrainContiguous inspects
  // map.begin() and stops when its start doesn't match `expected`, so the
  // mis-sorted post-wrap run stalled the drain even though the pre-wrap run
  // was contiguous. Keying by offset from ooo_base restores serial order.
  GroHarness h = MakePresto();
  const FiveTuple flow = TestFlow();
  const Seq start = static_cast<Seq>(0) - 3 * kMss;  // 3 MTUs shy of the wrap

  h.Receive(MakeDataPacket(flow, start, kMss));
  h.PollComplete();
  h.TakeDelivered();
  // expected is now start + kMss; leave a one-packet hole there.

  // Buffer the post-wrap run first so the two runs cannot coalesce on
  // insert, then the pre-wrap run that the hole-fill must drain first.
  h.Receive(MakeDataPacket(flow, 0, kMss));                            // post-wrap
  h.Receive(MakeDataPacket(flow, static_cast<Seq>(0) - kMss, kMss));  // pre-wrap
  EXPECT_TRUE(h.delivered().empty());

  h.Receive(MakeDataPacket(flow, start + kMss, kMss));  // fills the hole
  h.PollComplete();
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, start + kMss);
  EXPECT_EQ(h.delivered()[0].payload_len, 3 * kMss);  // hole + both runs

  // Nothing left riding the coarse timeout: the buffer fully drained.
  h.TakeDelivered();
  h.Advance(Ms(2));
  h.PollComplete();
  EXPECT_TRUE(h.delivered().empty());
}

TEST(PrestoGroTest, RetransmissionPassesThrough) {
  GroHarness h = MakePresto();
  const FiveTuple flow = TestFlow();
  h.Receive(MakeDataPacket(flow, 10 * kMss, kMss));
  h.PollComplete();
  h.TakeDelivered();
  h.Receive(MakeDataPacket(flow, 0, kMss));  // before expected
  ASSERT_EQ(h.delivered().size(), 1u);
  EXPECT_EQ(h.delivered()[0].seq, 0u);
}

}  // namespace
}  // namespace juggler
