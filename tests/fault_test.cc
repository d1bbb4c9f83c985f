// Unit tests for the fault-injection layer: FaultStage fault classes and
// determinism, FaultTimeline windowing, link failure modeling (SetDown/SetUp
// and runtime degradation, LinkFlapper), NIC checksum validation of
// corrupted frames, the StreamIntegrityChecker, and the JugglerAuditor.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <vector>

#include "src/core/juggler.h"
#include "src/fault/audit_log.h"
#include "src/fault/fault_stage.h"
#include "src/fault/juggler_auditor.h"
#include "src/fault/link_flapper.h"
#include "src/fault/stream_integrity.h"
#include "src/net/link.h"
#include "src/nic/nic_rx.h"
#include "src/scenario/gro_factories.h"
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

// ---------------------------------------------------------- FaultStage ----

TEST(FaultStageTest, PassThroughWithEmptyTimeline) {
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", FaultTimeline{}, 1, &sink);
  for (int i = 0; i < 100; ++i) {
    stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  EXPECT_EQ(sink.packets.size(), 100u);
  EXPECT_EQ(stage.stats().passed, 100u);
  EXPECT_EQ(stage.stats().drops, 0u);
}

TEST(FaultStageTest, SameSeedSameFaultPattern) {
  FaultProfile p;
  p.drop_prob = 0.1;
  p.dup_prob = 0.1;
  p.corrupt_prob = 0.05;
  auto run = [&](uint64_t seed) {
    EventLoop loop;
    CollectorSink sink(&loop);
    FaultStage stage(&loop, "f", FaultTimeline::Always(p), seed, &sink);
    for (int i = 0; i < 2000; ++i) {
      stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
    }
    std::vector<Seq> out;
    for (const auto& pk : sink.packets) {
      out.push_back(pk->seq);
    }
    return std::make_pair(out, stage.stats());
  };
  auto [out_a, stats_a] = run(42);
  auto [out_b, stats_b] = run(42);
  auto [out_c, stats_c] = run(43);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(stats_a.drops, stats_b.drops);
  EXPECT_EQ(stats_a.duplicates, stats_b.duplicates);
  EXPECT_EQ(stats_a.corruptions, stats_b.corruptions);
  EXPECT_NE(out_a, out_c);  // different seed, different pattern
}

TEST(FaultStageTest, DuplicateEmitsIdenticalCopyAfterOriginal) {
  FaultProfile p;
  p.dup_prob = 1.0;
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", FaultTimeline::Always(p), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 7 * kMss, kMss));
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0]->seq, 7 * kMss);
  EXPECT_EQ(sink.packets[1]->seq, 7 * kMss);
  EXPECT_EQ(sink.packets[1]->payload_len, kMss);
  EXPECT_EQ(stage.stats().duplicates, 1u);
}

TEST(FaultStageTest, CorruptMarksButStillForwards) {
  FaultProfile p;
  p.corrupt_prob = 1.0;
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", FaultTimeline::Always(p), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_TRUE(sink.packets[0]->corrupted);
  EXPECT_EQ(stage.stats().corruptions, 1u);
}

TEST(FaultStageTest, TruncateShortensAndMarksCorrupted) {
  FaultProfile p;
  p.truncate_prob = 1.0;
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", FaultTimeline::Always(p), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_LT(sink.packets[0]->payload_len, kMss);
  EXPECT_GE(sink.packets[0]->payload_len, 1u);
  EXPECT_TRUE(sink.packets[0]->corrupted);
  EXPECT_EQ(stage.stats().truncations, 1u);
}

TEST(FaultStageTest, BurstDropsConsecutivePackets) {
  FaultProfile p;
  p.burst_prob = 1.0;  // first packet starts a burst...
  p.burst_len_min = 4;
  p.burst_len_max = 4;
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", FaultTimeline::Always(p), 1, &sink);
  for (int i = 0; i < 4; ++i) {
    stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  // ...and the burst swallows exactly burst_len packets.
  EXPECT_EQ(sink.packets.size(), 0u);
  EXPECT_EQ(stage.stats().bursts_started, 1u);
  EXPECT_EQ(stage.stats().drops, 4u);
  EXPECT_EQ(stage.stats().burst_drops, 4u);
}

TEST(FaultStageTest, DelaySpikeReordersPastSuccessor) {
  EventLoop loop;
  FaultProfile p;
  p.delay_prob = 1.0;
  p.delay_min = Us(100);
  p.delay_max = Us(100);
  FaultTimeline timeline;
  timeline.Add(0, Us(1), p);  // only the first packet is delayed
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", std::move(timeline), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  loop.RunUntil(Us(50));
  stage.Accept(MakeDataPacket(TestFlow(), kMss, kMss));
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0]->seq, kMss);  // undelayed packet overtook
  EXPECT_EQ(sink.packets[1]->seq, 0u);
  EXPECT_EQ(sink.arrival_times[1], Us(100));
  EXPECT_EQ(stage.stats().delayed, 1u);
}

TEST(FaultStageTest, TimelineWindowsGateFaults) {
  EventLoop loop;
  FaultProfile p;
  p.drop_prob = 1.0;
  FaultTimeline timeline;
  timeline.Add(Us(10), Us(20), p);
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", std::move(timeline), 1, &sink);
  auto send_at = [&](TimeNs when, Seq seq) {
    loop.RunUntil(when);
    stage.Accept(MakeDataPacket(TestFlow(), seq, kMss));
  };
  send_at(Us(5), 0);          // before the window: passes
  send_at(Us(15), kMss);      // inside: dropped
  send_at(Us(25), 2 * kMss);  // after: passes
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0]->seq, 0u);
  EXPECT_EQ(sink.packets[1]->seq, 2 * kMss);
  EXPECT_EQ(stage.stats().drops, 1u);
}

TEST(FaultStageTest, LastMatchingWindowWins) {
  FaultProfile quiet;  // all-zero profile overlaying a drop-everything one
  FaultProfile noisy;
  noisy.drop_prob = 1.0;
  FaultTimeline timeline;
  timeline.Add(0, Us(100), noisy);
  timeline.Add(0, Us(100), quiet);
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", std::move(timeline), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  EXPECT_EQ(sink.packets.size(), 1u);
}

// An always-on profile with only drop_prob set is Fig. 14's uniform loss
// injection: independent drops at the configured rate.
TEST(FaultStageTest, DropsAtConfiguredRate) {
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultProfile p;
  p.drop_prob = 0.1;
  FaultStage stage(&loop, "f", FaultTimeline::Always(p), 11, &sink);
  for (int i = 0; i < 10000; ++i) {
    stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  EXPECT_NEAR(static_cast<double>(stage.stats().drops), 1000.0, 120.0);
  EXPECT_EQ(sink.packets.size() + stage.stats().drops, 10000u);
}

// ------------------------------------------- NIC checksum validation ------

TEST(NicChecksumTest, CorruptedFrameDiscardedAtNic) {
  EventLoop loop;
  CpuCostModel costs;
  class NullSegSink : public SegmentSink {
   public:
    void OnSegment(Segment) override {}
  } seg_sink;
  NicRxConfig cfg;
  NicRx nic(&loop, &costs, cfg, MakeStandardGroFactory(), &seg_sink);
  auto good = MakeDataPacket(TestFlow(), 0, kMss);
  auto bad = MakeDataPacket(TestFlow(), kMss, kMss);
  bad->corrupted = true;
  nic.Accept(std::move(good));
  nic.Accept(std::move(bad));
  loop.Run();
  EXPECT_EQ(nic.stats().packets_in, 2u);
  EXPECT_EQ(nic.stats().checksum_drops, 1u);
  // Only the clean frame reached GRO.
  EXPECT_EQ(nic.TotalGroStats().packets_in, 1u);
}

// ------------------------------------------------------- Link failures ----

PacketPtr WirePacket(Seq seq) { return MakeDataPacket(TestFlow(), seq, kMss); }

TEST(LinkFailureTest, DownBlackholesArrivalsAndUpResumes) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  link.SetDown();
  EXPECT_TRUE(link.is_down());
  link.Accept(WirePacket(0));
  loop.Run();
  EXPECT_EQ(sink.packets.size(), 0u);
  EXPECT_EQ(link.stats().down_drops, 1u);
  EXPECT_EQ(link.stats().down_transitions, 1u);
  link.SetUp();
  EXPECT_FALSE(link.is_down());
  link.Accept(WirePacket(kMss));
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0]->seq, kMss);
}

TEST(LinkFailureTest, QueuedPacketsSurviveDownWindow) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  // Two packets: the first is in flight when the link goes down; the second
  // waits in the queue across the outage and drains after SetUp.
  link.Accept(WirePacket(0));
  link.Accept(WirePacket(kMss));
  link.SetDown();
  loop.RunUntil(Us(50));
  EXPECT_LE(sink.packets.size(), 1u);  // in-flight frame may complete
  link.SetUp();
  loop.Run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(link.stats().drops, 0u);
}

TEST(LinkFailureTest, RuntimeRateDegradationSlowsSerialization) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  link.Accept(WirePacket(0));
  loop.Run();
  const TimeNs fast = sink.arrival_times[0];
  link.set_rate_bps(1 * kGbps);
  const TimeNs start = loop.now();
  link.Accept(WirePacket(kMss));
  loop.Run();
  const TimeNs slow = sink.arrival_times[1] - start;
  // 10x the serialization time, modulo the ceiling in SerializationTime.
  EXPECT_GE(slow, 10 * fast - 9);
  EXPECT_LE(slow, 10 * fast);
}

TEST(LinkFailureTest, DownWindowRetimesQueuedFramesFromSetUp) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = Us(2);
  Link link(&loop, "l", cfg, &sink);
  for (Seq s = 0; s < 4; ++s) {
    link.Accept(WirePacket(s * kMss));
  }
  const TimeNs ser = SerializationTime(kMss + kPerPacketWireOverhead, cfg.rate_bps);
  loop.RunUntil(ser / 2);
  link.SetDown();  // frame 0 is serializing, three wait behind it
  const TimeNs up_at = Us(10);  // an outage several frames long
  loop.RunUntil(up_at);
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], ser + cfg.propagation_delay);  // drained on time
  link.SetUp();
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 4u);
  for (size_t k = 1; k < 4; ++k) {
    EXPECT_EQ(sink.packets[k]->seq, k * kMss);
    EXPECT_EQ(sink.arrival_times[k],
              up_at + static_cast<TimeNs>(k) * ser + cfg.propagation_delay)
        << "frame " << k;
  }
  EXPECT_EQ(link.stats().packets_tx, 4u);
  EXPECT_EQ(link.queued_bytes(), 0);
}

TEST(LinkFailureTest, RateChangeRetimesOnlyFramesNotStarted) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = Us(2);
  Link link(&loop, "l", cfg, &sink);
  for (Seq s = 0; s < 3; ++s) {
    link.Accept(WirePacket(s * kMss));
  }
  const int64_t wire = kMss + kPerPacketWireOverhead;
  const TimeNs fast = SerializationTime(wire, cfg.rate_bps);
  const TimeNs slow = SerializationTime(wire, 1 * kGbps);
  loop.RunUntil(fast / 2);
  link.set_rate_bps(1 * kGbps);  // frame 0 keeps the old rate
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.arrival_times[0], fast + cfg.propagation_delay);
  EXPECT_EQ(sink.arrival_times[1], fast + slow + cfg.propagation_delay);
  EXPECT_EQ(sink.arrival_times[2], fast + 2 * slow + cfg.propagation_delay);
}

PacketPtr PrioPacket(Seq seq, Priority prio) {
  PacketPtr p = WirePacket(seq);
  p->priority = prio;
  return p;
}

TEST(LinkFailureTest, StrictPriorityDownWindowServesHighFirstAfterSetUp) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = Us(2);
  cfg.num_priorities = 2;
  Link link(&loop, "l", cfg, &sink);
  for (Seq s = 0; s < 3; ++s) {
    link.Accept(PrioPacket(s * kMss, Priority::kLow));
  }
  link.Accept(PrioPacket(100 * kMss, Priority::kHigh));
  const TimeNs ser = SerializationTime(kMss + kPerPacketWireOverhead, cfg.rate_bps);
  loop.RunUntil(ser / 2);
  link.SetDown();  // low 0 serializing; the high and two lows wait
  const TimeNs up_at = Us(10);
  loop.RunUntil(up_at);
  ASSERT_EQ(sink.packets.size(), 1u);
  link.SetUp();
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 4u);
  const Seq order[] = {0, 100 * kMss, kMss, 2 * kMss};
  const TimeNs arrival[] = {ser, up_at + ser, up_at + 2 * ser, up_at + 3 * ser};
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(sink.packets[k]->seq, order[k]) << "frame " << k;
    EXPECT_EQ(sink.arrival_times[k], arrival[k] + cfg.propagation_delay) << "frame " << k;
  }
}

TEST(LinkFailureTest, StrictPriorityRateChangeMovesTheNextLowStart) {
  // A rate rise re-times the high frame queued behind the serializing low,
  // so the serializer must reach the next low earlier than it planned.
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 1 * kGbps;
  cfg.propagation_delay = Us(2);
  cfg.num_priorities = 2;
  Link link(&loop, "l", cfg, &sink);
  link.Accept(PrioPacket(0, Priority::kLow));
  link.Accept(PrioPacket(100 * kMss, Priority::kHigh));
  link.Accept(PrioPacket(kMss, Priority::kLow));  // planned after the high
  const int64_t wire = kMss + kPerPacketWireOverhead;
  const TimeNs slow = SerializationTime(wire, cfg.rate_bps);
  const TimeNs fast = SerializationTime(wire, 10 * kGbps);
  loop.RunUntil(slow / 2);
  link.set_rate_bps(10 * kGbps);
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.packets[1]->seq, 100 * kMss);
  EXPECT_EQ(sink.arrival_times[0], slow + cfg.propagation_delay);
  EXPECT_EQ(sink.arrival_times[1], slow + fast + cfg.propagation_delay);
  EXPECT_EQ(sink.arrival_times[2], slow + 2 * fast + cfg.propagation_delay);
}

TEST(LinkFailureTest, SetDownIdempotent) {
  EventLoop loop;
  CollectorSink sink(&loop);
  Link link(&loop, "l", LinkConfig{}, &sink);
  link.SetDown();
  link.SetDown();
  link.SetUp();
  link.SetUp();
  EXPECT_EQ(link.stats().down_transitions, 1u);
  EXPECT_FALSE(link.is_down());
}

TEST(LinkValidationDeathTest, RedMaxFillMustExceedMinFill) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.red = true;
  cfg.queue_limit_bytes = 100000;
  cfg.red_min_fill = 0.9;
  cfg.red_max_fill = 0.25;  // inverted ramp
  EXPECT_DEATH(Link(&loop, "l", cfg, &sink), "red_max_fill");
}

TEST(LinkValidationDeathTest, RedFillsMustBeFractions) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.red = true;
  cfg.queue_limit_bytes = 100000;
  cfg.red_max_fill = 1.5;  // not a fill fraction
  EXPECT_DEATH(Link(&loop, "l", cfg, &sink), "red_max_fill");
}

TEST(LinkValidationDeathTest, EcnThresholdMustBeFraction) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.ecn = true;
  cfg.queue_limit_bytes = 100000;
  cfg.ecn_threshold_fill = -0.1;
  EXPECT_DEATH(Link(&loop, "l", cfg, &sink), "ecn_threshold_fill");
}

TEST(LinkFlapperTest, SchedulesDownAndUpWindows) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  LinkFlapper flapper(&loop, &link, {FlapWindow{Us(10), Us(20), 0, 0}});
  flapper.Start();
  loop.RunUntil(Us(15));
  EXPECT_TRUE(link.is_down());
  loop.RunUntil(Us(25));
  EXPECT_FALSE(link.is_down());
  EXPECT_EQ(flapper.flaps_started(), 1u);
  EXPECT_EQ(flapper.flaps_finished(), 1u);
}

TEST(LinkFlapperTest, BrownOutDegradesAndRestoresRate) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  Link link(&loop, "l", cfg, &sink);
  LinkFlapper flapper(&loop, &link, {FlapWindow{Us(10), Us(20), 1 * kGbps, 0}});
  flapper.Start();
  loop.RunUntil(Us(15));
  EXPECT_FALSE(link.is_down());
  EXPECT_EQ(link.rate_bps(), 1 * kGbps);
  loop.RunUntil(Us(25));
  EXPECT_EQ(link.rate_bps(), 10 * kGbps);
}

TEST(LinkFlapperTest, RandomWindowsAreOrderedAndBounded) {
  Rng rng(5);
  auto windows =
      LinkFlapper::MakeRandomWindows(&rng, Ms(100), 5, Us(100), Us(500), true, 10 * kGbps);
  ASSERT_EQ(windows.size(), 5u);
  TimeNs prev_up = 0;
  for (const auto& w : windows) {
    EXPECT_GE(w.down_at, prev_up);  // non-overlapping
    EXPECT_GE(w.up_at - w.down_at, Us(100));
    EXPECT_LE(w.up_at - w.down_at, Us(500));
    EXPECT_EQ(w.degraded_rate_bps, 0);
    prev_up = w.up_at;
  }
}

// ------------------------------------- Timeline windowing edge cases ------

TEST(FaultTimelineTest, OverlappingWindowsLastAddedWins) {
  FaultProfile background;
  background.drop_prob = 0.25;
  FaultProfile episode;
  episode.drop_prob = 1.0;
  FaultTimeline t;
  t.Add(0, Ms(10), background);
  t.Add(Ms(2), Ms(3), episode);  // sharper overlay inside the broad window
  EXPECT_DOUBLE_EQ(t.ActiveAt(Ms(1))->drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(t.ActiveAt(Ms(2))->drop_prob, 1.0);
  EXPECT_DOUBLE_EQ(t.ActiveAt(Ms(3) - 1)->drop_prob, 1.0);
  EXPECT_DOUBLE_EQ(t.ActiveAt(Ms(3))->drop_prob, 0.25);  // [start, end)
  EXPECT_EQ(t.ActiveAt(Ms(10)), nullptr);
}

TEST(FaultTimelineTest, ZeroDurationWindowIsInert) {
  FaultProfile p;
  p.drop_prob = 1.0;
  FaultTimeline t;
  t.Add(Ms(5), Ms(5), p);
  EXPECT_EQ(t.ActiveAt(Ms(5) - 1), nullptr);
  EXPECT_EQ(t.ActiveAt(Ms(5)), nullptr);  // [start, start) covers nothing
  EXPECT_EQ(t.ActiveAt(Ms(5) + 1), nullptr);

  // Through a stage: a packet landing exactly on the empty window passes.
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", t, 1, &sink);
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(Ms(5) + i - 5, [&stage, i] {
      stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
    });
  }
  loop.Run();
  EXPECT_EQ(sink.packets.size(), 10u);
  EXPECT_EQ(stage.stats().drops, 0u);
}

TEST(FaultStageTest, WindowsEntirelyInThePastNeverFire) {
  // The whole schedule predates the traffic: every packet must pass. This is
  // the shrinker's common intermediate state — workload shortened below the
  // first fault window.
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultProfile p;
  p.drop_prob = 1.0;
  p.burst_prob = 1.0;
  FaultTimeline t;
  t.Add(Us(10), Us(20), p);
  t.Add(Us(30), Us(40), p);
  FaultStage stage(&loop, "f", t, 7, &sink);
  for (int i = 0; i < 20; ++i) {
    loop.ScheduleAt(Ms(1) + i * Us(10), [&stage, i] {
      stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
    });
  }
  loop.Run();
  EXPECT_EQ(sink.packets.size(), 20u);
  EXPECT_EQ(stage.stats().drops, 0u);
  EXPECT_EQ(stage.stats().bursts_started, 0u);
}

TEST(FaultStageTest, BurstContinuesPastWindowEnd) {
  // A drop burst models one physical event; the timeline window closing
  // mid-burst must not resurrect the tail of the burst.
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultProfile p;
  p.burst_prob = 1.0;
  p.burst_len_min = 4;
  p.burst_len_max = 4;
  FaultTimeline t;
  t.Add(0, Us(10), p);
  FaultStage stage(&loop, "f", t, 1, &sink);
  // One packet inside the window triggers the burst; five more arrive after
  // the window closed. The burst swallows the next three of them, the final
  // two pass.
  for (int i = 0; i < 6; ++i) {
    const TimeNs at = i == 0 ? Us(5) : Us(20) + i * Us(10);
    loop.ScheduleAt(at, [&stage, i] {
      stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
    });
  }
  loop.Run();
  EXPECT_EQ(stage.stats().bursts_started, 1u);
  EXPECT_EQ(stage.stats().burst_drops, 4u);
  EXPECT_EQ(stage.stats().drops, 4u);
  EXPECT_EQ(sink.packets.size(), 2u);
}

TEST(LinkFlapperTest, SimulationEndingMidFlapLeavesLinkDown) {
  // A run whose time limit lands inside a flap window observes the link
  // down with the flap started but unfinished — the state forensics sees
  // when a chaos run times out mid-outage. Resuming the loop restores it.
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  LinkFlapper flapper(&loop, &link, {FlapWindow{Us(10), Us(30), 0, 0}});
  flapper.Start();
  loop.RunUntil(Us(20));  // deadline inside [down_at, up_at)
  EXPECT_TRUE(link.is_down());
  EXPECT_EQ(flapper.flaps_started(), 1u);
  EXPECT_EQ(flapper.flaps_finished(), 0u);
  loop.Run();  // the pending SetUp still fires
  EXPECT_FALSE(link.is_down());
  EXPECT_EQ(flapper.flaps_finished(), 1u);
}

// -------------------------------------------- StreamIntegrityChecker ------

Segment DataSegment(Seq seq, uint32_t len) {
  Segment s;
  s.flow = TestFlow();
  s.seq = seq;
  s.payload_len = len;
  return s;
}

TEST(StreamIntegrityTest, CleanStreamPasses) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(3 * kMss);
  for (int i = 0; i < 3; ++i) {
    checker.OnSegment(DataSegment(static_cast<Seq>(i) * kMss, kMss));
    checker.OnDeliverTotal(static_cast<uint64_t>(i + 1) * kMss);
  }
  EXPECT_TRUE(checker.FinalCheck());
  EXPECT_TRUE(log.clean());
}

TEST(StreamIntegrityTest, NonMonotoneDeliveryFlagged) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.OnDeliverTotal(2 * kMss);
  checker.OnDeliverTotal(kMss);  // rollback
  EXPECT_EQ(log.violations(), 1u);
  checker.OnDeliverTotal(kMss);  // repeat (double delivery)
  EXPECT_EQ(log.violations(), 2u);
}

TEST(StreamIntegrityTest, OverDeliveryFlagged) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(kMss);
  checker.OnDeliverTotal(2 * kMss);  // more bytes than were ever sent
  EXPECT_FALSE(log.clean());
}

TEST(StreamIntegrityTest, IncompleteDeliveryFailsFinalCheck) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(2 * kMss);
  checker.OnSegment(DataSegment(0, kMss));
  checker.OnDeliverTotal(kMss);
  EXPECT_FALSE(checker.FinalCheck());
  EXPECT_FALSE(log.clean());
}

TEST(StreamIntegrityTest, CoverageGapFailsFinalCheck) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(3 * kMss);
  // TCP's counter claims everything arrived, but GRO never surfaced the
  // middle segment: the tap coverage has a hole.
  checker.OnSegment(DataSegment(0, kMss));
  checker.OnSegment(DataSegment(2 * kMss, kMss));
  checker.OnDeliverTotal(3 * kMss);
  EXPECT_FALSE(checker.FinalCheck());
}

TEST(StreamIntegrityTest, RetransmissionOverlapIsLegal) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(2 * kMss);
  checker.OnSegment(DataSegment(0, kMss));
  checker.OnSegment(DataSegment(0, kMss));  // retransmit reaches TCP: fine
  checker.OnSegment(DataSegment(kMss, kMss));
  checker.OnDeliverTotal(2 * kMss);
  EXPECT_TRUE(checker.FinalCheck());
}

TEST(StreamIntegrityTest, CoveragePastDeliveredTotalIsInFlight) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(2 * kMss);
  // The run ends with [0, 2 MSS) delivered while TCP still holds an
  // out-of-order segment beyond it: data in flight, not a gap.
  checker.OnSegment(DataSegment(0, 2 * kMss));
  checker.OnSegment(DataSegment(3 * kMss, kMss));
  checker.OnDeliverTotal(2 * kMss);
  EXPECT_TRUE(checker.FinalCheck());
  EXPECT_TRUE(log.clean());
}

// Stream digest of a checker that saw exactly `totals`, in order.
uint64_t DigestOf(std::initializer_list<uint64_t> totals) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  for (uint64_t total : totals) {
    checker.OnDeliverTotal(total);
  }
  return checker.stream_digest();
}

TEST(StreamIntegrityTest, DigestIndependentOfChunking) {
  // An odd total in random partial chunks, as in a partial-recv transport
  // test: the digest of a clean prefix depends only on its length.
  const uint64_t total = 128 * 1024 + 13;
  Rng rng(20261017);
  AuditLog log;
  StreamIntegrityChecker chunked("t", &log);
  uint64_t delivered = 0;
  while (delivered < total) {
    const uint64_t chunk = static_cast<uint64_t>(rng.NextInRange(1, 3 * kMss));
    delivered = std::min(total, delivered + chunk);
    chunked.OnDeliverTotal(delivered);
  }
  EXPECT_GT(chunked.deliver_callbacks(), 1u);
  EXPECT_TRUE(log.clean());
  EXPECT_EQ(chunked.stream_digest(), DigestOf({total}));
}

TEST(StreamIntegrityTest, DigestDistinguishesDeliveredTotals) {
  EXPECT_NE(DigestOf({3 * kMss}), DigestOf({3 * kMss + 1}));
  EXPECT_NE(DigestOf({}), DigestOf({1}));
}

TEST(StreamIntegrityTest, DigestRecordsAnomalyHistory) {
  const uint64_t clean = DigestOf({kMss, 2 * kMss, 3 * kMss});
  // Same final total, reached after a rollback or a repeat.
  const uint64_t rollback = DigestOf({2 * kMss, kMss, 3 * kMss});
  const uint64_t repeat = DigestOf({kMss, kMss, 3 * kMss});
  EXPECT_NE(rollback, clean);
  EXPECT_NE(repeat, clean);
  EXPECT_NE(rollback, repeat);
  // The anomaly's totals are part of the history, not only its kind.
  EXPECT_NE(DigestOf({2 * kMss, 2 * kMss, 3 * kMss}), repeat);
  // A given history always digests the same.
  EXPECT_EQ(DigestOf({2 * kMss, kMss, 3 * kMss}), rollback);
}

TEST(StreamIntegrityTest, HugeDeliveryIsConstantTime) {
  // A per-byte fold would walk 2^40 positions here.
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.OnDeliverTotal(uint64_t{1} << 40);
  EXPECT_EQ(checker.delivered_total(), uint64_t{1} << 40);
  EXPECT_EQ(checker.stream_digest(), DigestOf({uint64_t{1} << 40}));
  EXPECT_TRUE(log.clean());
}

// ------------------------------------------------------ JugglerAuditor ----

GroHarness MakeAuditedJuggler(AuditLog* log, JugglerConfig config = {}) {
  return GroHarness([log, config](const CpuCostModel* c) {
    return std::make_unique<JugglerAuditor>(std::make_unique<Juggler>(c, config), log);
  });
}

TEST(JugglerAuditorTest, CleanOnInOrderTraffic) {
  AuditLog log;
  GroHarness h = MakeAuditedJuggler(&log);
  for (int i = 0; i < 45; ++i) {
    h.Receive(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  h.PollComplete();
  auto* auditor = static_cast<JugglerAuditor*>(h.engine());
  EXPECT_GT(auditor->audits(), 0u);
  EXPECT_TRUE(log.clean());
}

TEST(JugglerAuditorTest, CleanAcrossReorderingTimeoutsAndEviction) {
  AuditLog log;
  JugglerConfig config;
  config.max_flows = 4;
  config.inseq_timeout = Us(15);
  config.ofo_timeout = Us(50);
  GroHarness h = MakeAuditedJuggler(&log, config);
  // Out-of-order arrivals with holes across many flows on a tiny table:
  // exercises build-up, active merging, loss recovery, and all three
  // eviction classes, auditing structure after every poll and timer.
  for (int round = 0; round < 30; ++round) {
    for (uint16_t f = 0; f < 8; ++f) {
      const Seq base = static_cast<Seq>(round) * 4 * kMss;
      h.Receive(MakeDataPacket(TestFlow(f, 1), base + 2 * kMss, kMss));
      h.Receive(MakeDataPacket(TestFlow(f, 1), base, kMss));
      if (round % 3 != 0) {  // leave a hole every third round
        h.Receive(MakeDataPacket(TestFlow(f, 1), base + kMss, kMss));
      }
    }
    h.Advance(Us(20));
    h.PollComplete();
    h.MaybeFireTimer();
    h.Advance(Us(40));
    h.MaybeFireTimer();
  }
  auto* auditor = static_cast<JugglerAuditor*>(h.engine());
  EXPECT_GT(auditor->inner()->juggler_stats().evictions_inactive +
                auditor->inner()->juggler_stats().evictions_active +
                auditor->inner()->juggler_stats().evictions_loss,
            0u);
  EXPECT_TRUE(log.clean()) << (log.messages().empty() ? "" : log.messages().front());
}

TEST(JugglerAuditorTest, StatsMirrorInnerEngine) {
  AuditLog log;
  GroHarness h = MakeAuditedJuggler(&log);
  for (int i = 0; i < 10; ++i) {
    h.Receive(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  h.PollComplete();
  auto* auditor = static_cast<JugglerAuditor*>(h.engine());
  // The wrapper's GroStats must track the inner engine's so NicRx's
  // aggregated accounting does not lose the audited engine's counters.
  EXPECT_EQ(h.engine()->stats().packets_in, auditor->inner()->stats().packets_in);
  EXPECT_EQ(h.engine()->stats().segments_out, auditor->inner()->stats().segments_out);
  EXPECT_GT(h.engine()->stats().packets_in, 0u);
}

TEST(AuditLogTest, CountsUnboundedMessagesBounded) {
  AuditLog log;
  for (int i = 0; i < 200; ++i) {
    log.Violation("t", "v" + std::to_string(i));
  }
  EXPECT_EQ(log.violations(), 200u);
  EXPECT_EQ(log.messages().size(), AuditLog::kMaxMessages);
  EXPECT_FALSE(log.clean());
  log.Clear();
  EXPECT_TRUE(log.clean());
}

// Juggler::Audit() itself: the view reflects the engine's structure.
TEST(JugglerAuditViewTest, ViewMatchesListsAndBytes) {
  JugglerConfig config;
  GroHarness h([config](const CpuCostModel* c) {
    return std::make_unique<Juggler>(c, config);
  });
  auto* jug = static_cast<Juggler*>(h.engine());
  // Flow 1 holds a run beyond a hole (stays buffered after the in-sequence
  // flush); flow 2 flushes clean and goes inactive.
  h.Receive(MakeDataPacket(TestFlow(1, 1), 0, kMss));
  h.Receive(MakeDataPacket(TestFlow(1, 1), 2 * kMss, kMss));
  h.Receive(MakeDataPacket(TestFlow(2, 1), 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  const Juggler::AuditView view = jug->Audit();
  EXPECT_EQ(view.table_size, 2u);
  EXPECT_EQ(view.active_len + view.inactive_len + view.loss_len, view.table_size);
  uint64_t held = 0;
  for (const auto& f : view.flows) {
    EXPECT_NE(f.list, Juggler::ListId::kNone);
    held += f.buffered_bytes;
  }
  EXPECT_EQ(held, static_cast<uint64_t>(kMss));  // the un-flushed hole run
  EXPECT_EQ(view.buffered_bytes_in, view.buffered_bytes_out + held);
}

}  // namespace
}  // namespace juggler
