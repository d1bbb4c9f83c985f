#include <gtest/gtest.h>

#include "src/gro/segment_builder.h"
#include "src/packet/packet.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

TEST(FiveTupleTest, EqualityAndReverse) {
  const FiveTuple t = TestFlow(10, 20);
  EXPECT_EQ(t, t);
  const FiveTuple r = t.Reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.Reversed(), t);
  EXPECT_NE(r.Hash(), t.Hash());
}

TEST(FiveTupleTest, HashSpreadsPorts) {
  const uint64_t h1 = TestFlow(1000, 80).Hash();
  const uint64_t h2 = TestFlow(1001, 80).Hash();
  EXPECT_NE(h1, h2);
}

TEST(PacketTest, PureAckDetection) {
  auto ack = MakeAckPacket(TestFlow(), 500);
  EXPECT_TRUE(ack->is_pure_ack());
  auto data = MakeDataPacket(TestFlow(), 0, 100);
  EXPECT_FALSE(data->is_pure_ack());
  EXPECT_EQ(data->end_seq(), 100u);
  EXPECT_EQ(data->wire_bytes(), 100 + kPerPacketWireOverhead);
}

TEST(PacketTest, FactoryAssignsUniqueIds) {
  PacketFactory f;
  auto a = f.Make();
  auto b = f.Make();
  EXPECT_NE(a->id, b->id);
  EXPECT_EQ(f.allocated(), 2u);
}

TEST(PacketPoolTest, RecyclesStorage) {
  PacketPool& pool = PacketPool::ThreadLocal();
  pool.Trim();  // earlier tests may have left releases on the freelist
  const uint64_t acquired_before = pool.acquired();
  const uint64_t recycled_before = pool.recycled();

  Packet* raw;
  {
    PacketPtr p = AllocPacket();
    raw = p.get();
  }  // released back to the pool
  EXPECT_GE(pool.free_size(), 1u);

  // LIFO freelist: the very next acquire reuses the just-released storage.
  PacketPtr q = AllocPacket();
  EXPECT_EQ(q.get(), raw);
  EXPECT_EQ(pool.acquired(), acquired_before + 2);
  EXPECT_EQ(pool.recycled(), recycled_before + 1);
}

// Dirties every field of `p` so a lazy reset would be caught.
void DirtyAllFields(Packet* p) {
  p->id = 0xdeadbeef;
  p->flow = FiveTuple{1, 2, 3, 4, 17};
  p->seq = 99;
  p->payload_len = 1448;
  p->flags = kFlagAck | kFlagPsh | kFlagFin;
  p->ack_seq = 77;
  p->ack_rwnd = 65535;
  p->sack.Add(10, 20);
  p->sack.Add(30, 40);
  p->ece = true;
  p->options_token = 5;
  p->ce_mark = true;
  p->corrupted = true;
  p->priority = Priority::kHigh;
  p->tso_id = 42;
  p->sent_time = 123;
  p->nic_rx_time = 456;
}

TEST(PacketPoolTest, RecycledPacketMatchesDefaultConstructed) {
  // Pins the memset-plus-fixups reset in PacketPool::Acquire: a recycled
  // packet must be indistinguishable from `Packet{}` in every field. If a
  // non-zero default is ever added to Packet without a matching fixup in
  // Acquire, this test fails.
  Packet* raw;
  {
    PacketPtr p = AllocPacket();
    DirtyAllFields(p.get());
    raw = p.get();
  }
  PacketPtr q = AllocPacket();
  ASSERT_EQ(q.get(), raw);  // storage actually recycled

  const Packet fresh{};
  EXPECT_EQ(q->id, fresh.id);
  EXPECT_EQ(q->flow, fresh.flow);
  EXPECT_EQ(q->flow.protocol, 6);  // non-zero default, fixed up after memset
  EXPECT_EQ(q->seq, fresh.seq);
  EXPECT_EQ(q->payload_len, fresh.payload_len);
  EXPECT_EQ(q->flags, fresh.flags);
  EXPECT_EQ(q->ack_seq, fresh.ack_seq);
  EXPECT_EQ(q->ack_rwnd, fresh.ack_rwnd);
  EXPECT_EQ(q->sack.count, fresh.sack.count);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q->sack.start[i], fresh.sack.start[i]);
    EXPECT_EQ(q->sack.end[i], fresh.sack.end[i]);
  }
  EXPECT_EQ(q->ece, fresh.ece);
  EXPECT_EQ(q->options_token, fresh.options_token);
  EXPECT_EQ(q->ce_mark, fresh.ce_mark);
  EXPECT_EQ(q->corrupted, fresh.corrupted);
  EXPECT_EQ(q->priority, fresh.priority);  // non-zero default (kLow), fixed up
  EXPECT_EQ(q->tso_id, fresh.tso_id);
  EXPECT_EQ(q->sent_time, fresh.sent_time);
  EXPECT_EQ(q->nic_rx_time, fresh.nic_rx_time);
}

TEST(PacketPoolTest, ClonePacketCopiesAllFields) {
  PacketPtr src = AllocPacket();
  DirtyAllFields(src.get());
  PacketPtr copy = ClonePacket(*src);
  EXPECT_NE(copy.get(), src.get());
  EXPECT_EQ(copy->id, src->id);
  EXPECT_EQ(copy->flow, src->flow);
  EXPECT_EQ(copy->seq, src->seq);
  EXPECT_EQ(copy->payload_len, src->payload_len);
  EXPECT_EQ(copy->flags, src->flags);
  EXPECT_EQ(copy->priority, src->priority);
  EXPECT_EQ(copy->tso_id, src->tso_id);
  EXPECT_EQ(copy->sack.count, src->sack.count);
}

TEST(PacketPoolTest, TrimFreesStorageKeepsStats) {
  PacketPool& pool = PacketPool::ThreadLocal();
  { PacketPtr p = AllocPacket(); }
  ASSERT_GE(pool.free_size(), 1u);
  const uint64_t acquired = pool.acquired();
  pool.Trim();
  EXPECT_EQ(pool.free_size(), 0u);
  EXPECT_EQ(pool.acquired(), acquired);
  // The pool still serves (now freshly allocated) packets after a trim.
  PacketPtr p = AllocPacket();
  EXPECT_NE(p.get(), nullptr);
}

TEST(PacketPoolTest, ReleaseStormCompactsToBoundedFreelist) {
  // A release storm — many packets freed with nobody acquiring — must not
  // leave the freelist holding the storm's worth of storage. The watermark
  // policy frees down to max(floor/2, recent demand) once the list crosses
  // the watermark, so after any storm the retained storage is bounded by
  // ~2x the floor, independent of storm size.
  PacketPool& pool = PacketPool::ThreadLocal();
  pool.Trim();  // reset watermark + demand accounting to a known state
  const size_t floor = pool.compact_watermark();
  const uint64_t freed_before = pool.compact_freed();

  const size_t storm = 4 * floor;
  std::vector<PacketPtr> held;
  held.reserve(storm);
  for (size_t i = 0; i < storm; ++i) {
    held.push_back(AllocPacket());
  }
  held.clear();  // the storm: every release lands on the freelist

  EXPECT_LT(pool.free_size(), 2 * floor) << "freelist retained the storm";
  EXPECT_GT(pool.compact_freed(), freed_before) << "compaction never fired";
  // The pool still serves packets normally afterwards.
  PacketPtr p = AllocPacket();
  EXPECT_NE(p.get(), nullptr);
  pool.Trim();
}

TEST(PacketPoolTest, BusySteadyStateNeverCompacts) {
  // Acquire/release churn where the freelist keeps turning over is demand,
  // not a storm: compaction must not fire and throw away storage that is
  // about to be reused.
  PacketPool& pool = PacketPool::ThreadLocal();
  pool.Trim();
  const uint64_t freed_before = pool.compact_freed();
  for (int round = 0; round < 200; ++round) {
    std::vector<PacketPtr> batch;
    for (int i = 0; i < 64; ++i) {
      batch.push_back(AllocPacket());
    }
    batch.clear();
  }
  EXPECT_EQ(pool.compact_freed(), freed_before);
  pool.Trim();
}

TEST(PacketPoolTest, ReleaseBatchRecyclesAndConsumes) {
  PacketPool& pool = PacketPool::ThreadLocal();
  pool.Trim();
  const uint64_t recycled_before = pool.recycled();

  std::vector<PacketPtr> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back(AllocPacket());
  }
  batch[7].reset();  // partially consumed batches carry null entries
  const size_t free_before = pool.free_size();
  PacketPool::ReleaseBatch(batch.data(), batch.size());
  EXPECT_EQ(pool.free_size(), free_before + 31);
  for (const PacketPtr& p : batch) {
    EXPECT_EQ(p.get(), nullptr) << "ReleaseBatch must null every entry";
  }
  // The released storage actually recycles.
  PacketPtr p = AllocPacket();
  EXPECT_EQ(pool.recycled(), recycled_before + 1);
  p.reset();
  pool.Trim();
}

TEST(PacketPoolTest, ReleaseBatchRoutesStampedPacketsToOrigin) {
  // Mixed-origin batch: ambient (unstamped) packets recycle locally, while
  // packets stamped by an OriginStampTag pool that is NOT the ambient pool
  // go straight back to their origin's freelist (shard teardown releases
  // every domain's packets on one thread this way).
  PacketPool origin{PacketPool::OriginStampTag{}};
  PacketPool& ambient = PacketPool::ThreadLocal();
  ambient.Trim();

  std::vector<PacketPtr> batch;
  PacketPool* prev = PacketPool::SwapThreadPool(&origin);
  for (int i = 0; i < 8; ++i) {
    batch.push_back(AllocPacket());  // stamped with &origin
  }
  PacketPool::SwapThreadPool(prev);
  for (int i = 0; i < 8; ++i) {
    batch.push_back(AllocPacket());  // ambient, unstamped
  }
  for (const PacketPtr& p : batch) {
    ASSERT_NE(p.get(), nullptr);
  }

  const size_t ambient_before = ambient.free_size();
  PacketPool::ReleaseBatch(batch.data(), batch.size());
  EXPECT_EQ(ambient.free_size(), ambient_before + 8) << "ambient packets recycle locally";
  EXPECT_EQ(origin.free_size(), 8u) << "stamped packets return to their origin at once";
  EXPECT_EQ(origin.outstanding(), 0u);

  // The origin reuses them: 8 acquisitions come back recycled, not fresh.
  prev = PacketPool::SwapThreadPool(&origin);
  const uint64_t recycled_before = origin.recycled();
  std::vector<PacketPtr> again;
  for (int i = 0; i < 8; ++i) {
    again.push_back(AllocPacket());
  }
  EXPECT_EQ(origin.recycled(), recycled_before + 8);
  again.clear();
  PacketPool::SwapThreadPool(prev);
}

TEST(PacketPoolTest, RemoteReturnChurnStaysBoundedAndRecycles) {
  // Sustained cross-pool churn: every round hands packets out of the origin
  // pool and releases them while another pool is ambient. The origin must
  // recycle all of them (no allocation leak into the ambient pool) and the
  // freelists must not grow with the number of rounds.
  PacketPool origin{PacketPool::OriginStampTag{}};
  PacketPool& ambient = PacketPool::ThreadLocal();
  ambient.Trim();
  const size_t ambient_baseline = ambient.free_size();

  uint64_t fresh_after_warmup = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<PacketPtr> batch;
    PacketPool* prev = PacketPool::SwapThreadPool(&origin);
    for (int i = 0; i < 64; ++i) {
      batch.push_back(AllocPacket());
    }
    PacketPool::SwapThreadPool(prev);
    batch.clear();  // released with the ambient pool current -> origin
    if (round == 0) {
      fresh_after_warmup = origin.acquired() - origin.recycled();
    }
  }
  // After the first round primed the origin's freelist, later rounds
  // recycle: the origin never allocated more than ~2 rounds' worth of
  // storage.
  EXPECT_LE(origin.acquired() - origin.recycled(), fresh_after_warmup + 64);
  EXPECT_EQ(ambient.free_size(), ambient_baseline)
      << "stamped packets leaked into the ambient pool";
}

TEST(SegmentBuilderTest, StartFromPacket) {
  SegmentBuilder b;
  EXPECT_TRUE(b.empty());
  b.Start(*MakeDataPacket(TestFlow(), 1000, kMss));
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.start_seq(), 1000u);
  EXPECT_EQ(b.end_seq(), 1000u + kMss);
  EXPECT_EQ(b.mtu_count(), 1u);
}

TEST(SegmentBuilderTest, MergesContiguous) {
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), 0, kMss));
  EXPECT_EQ(b.TryMerge(*MakeDataPacket(TestFlow(), kMss, kMss), kMaxTsoPayload),
            SegmentBuilder::MergeResult::kMerged);
  EXPECT_EQ(b.payload_len(), 2 * kMss);
  EXPECT_EQ(b.mtu_count(), 2u);
}

TEST(SegmentBuilderTest, RefusesGap) {
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), 0, kMss));
  EXPECT_EQ(b.TryMerge(*MakeDataPacket(TestFlow(), 2 * kMss, kMss), kMaxTsoPayload),
            SegmentBuilder::MergeResult::kRefusedOoo);
  EXPECT_EQ(b.payload_len(), kMss);  // unchanged
}

TEST(SegmentBuilderTest, RefusesMetaMismatch) {
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), 0, kMss));
  auto p = MakeDataPacket(TestFlow(), kMss, kMss);
  p->options_token = 99;
  EXPECT_EQ(b.TryMerge(*p, kMaxTsoPayload), SegmentBuilder::MergeResult::kRefusedMeta);
  auto q = MakeDataPacket(TestFlow(), kMss, kMss);
  q->ce_mark = true;
  EXPECT_EQ(b.TryMerge(*q, kMaxTsoPayload), SegmentBuilder::MergeResult::kRefusedMeta);
}

TEST(SegmentBuilderTest, SizeLimit) {
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), 0, kMss));
  Seq next = kMss;
  for (int i = 0; i < 43; ++i) {
    EXPECT_EQ(b.TryMerge(*MakeDataPacket(TestFlow(), next, kMss), kMaxTsoPayload),
              SegmentBuilder::MergeResult::kMerged);
    next += kMss;
  }
  // 45th MTU fills the segment exactly: merged but final.
  EXPECT_EQ(b.TryMerge(*MakeDataPacket(TestFlow(), next, kMss), kMaxTsoPayload),
            SegmentBuilder::MergeResult::kMergedFinal);
  next += kMss;
  EXPECT_EQ(b.payload_len(), kMaxTsoPayload);
  // 46th does not fit.
  EXPECT_EQ(b.TryMerge(*MakeDataPacket(TestFlow(), next, kMss), kMaxTsoPayload),
            SegmentBuilder::MergeResult::kRefusedSize);
}

TEST(SegmentBuilderTest, PshMarksFinalAndNeedsFlush) {
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), 0, kMss));
  EXPECT_FALSE(b.needs_flush());
  EXPECT_EQ(b.TryMerge(*MakeDataPacket(TestFlow(), kMss, kMss, kFlagAck | kFlagPsh),
                       kMaxTsoPayload),
            SegmentBuilder::MergeResult::kMergedFinal);
  EXPECT_TRUE((b.segment().flags & kFlagPsh) != 0);
}

TEST(SegmentBuilderTest, StartWithPshNeedsFlush) {
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), 0, 150, kFlagAck | kFlagPsh));
  EXPECT_TRUE(b.needs_flush());
}

TEST(SegmentBuilderTest, TakeResets) {
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), 100, kMss));
  const Segment s = b.Take();
  EXPECT_EQ(s.seq, 100u);
  EXPECT_EQ(s.payload_len, kMss);
  EXPECT_TRUE(b.empty());
}

TEST(SegmentBuilderTest, AppendJoinsRuns) {
  SegmentBuilder a;
  a.Start(*MakeDataPacket(TestFlow(), 0, kMss));
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), kMss, kMss, kFlagAck | kFlagPsh));
  a.Append(std::move(b));
  EXPECT_EQ(a.payload_len(), 2 * kMss);
  EXPECT_EQ(a.mtu_count(), 2u);
  EXPECT_TRUE(a.needs_flush());
}

TEST(SegmentBuilderTest, TracksRxTimes) {
  SegmentBuilder b;
  b.Start(*MakeDataPacket(TestFlow(), 0, kMss, kFlagAck, /*rx_time=*/100));
  b.TryMerge(*MakeDataPacket(TestFlow(), kMss, kMss, kFlagAck, /*rx_time=*/250), kMaxTsoPayload);
  EXPECT_EQ(b.segment().first_rx_time, 100);
  EXPECT_EQ(b.segment().last_rx_time, 250);
}

TEST(SegmentBuilderTest, LatestAckWins) {
  SegmentBuilder b;
  auto p1 = MakeDataPacket(TestFlow(), 0, kMss);
  p1->ack_seq = 10;
  b.Start(*p1);
  auto p2 = MakeDataPacket(TestFlow(), kMss, kMss);
  p2->ack_seq = 20;
  b.TryMerge(*p2, kMaxTsoPayload);
  EXPECT_EQ(b.segment().ack_seq, 20u);
}

TEST(SegmentBuilderTest, WrapAroundMerge) {
  SegmentBuilder b;
  const Seq near_wrap = 0xffffffffu - kMss + 1;
  b.Start(*MakeDataPacket(TestFlow(), near_wrap, kMss));
  EXPECT_EQ(b.end_seq(), 0u);  // wrapped
  EXPECT_EQ(b.TryMerge(*MakeDataPacket(TestFlow(), 0, kMss), kMaxTsoPayload),
            SegmentBuilder::MergeResult::kMerged);
  EXPECT_EQ(b.end_seq(), kMss);
}

}  // namespace
}  // namespace juggler
