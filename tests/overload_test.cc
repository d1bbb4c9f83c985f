// Overload-resilience tests: bounded-resource operation under incast,
// flow-churn, and memory brown-out pressure.
//
// The contract under test (ISSUE 9 tentpole):
//   * hard capacity caps never abort — PacketPool::TryAcquire sheds with a
//     typed refusal counter, NIC rings tail-drop, the gro_table evicts;
//   * every shed packet is visible in metrics (the drop conservation law:
//     pool refusals == the sum of per-layer drop counters — checked inside
//     OverloadAuditor::FinalCheck, so "zero violations with nonzero
//     refusals" is the conservation proof);
//   * the stack recovers after pressure ends (occupancy back under the
//     watermark, gro_table drained, throughput restored) and leaks nothing
//     (teardown measures outstanding pool packets exactly);
//   * every overload scenario is deterministic and shard-invariant: the
//     digest is byte-identical for any worker count N >= 1.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/juggler.h"
#include "src/fault/fault_json.h"
#include "src/fault/juggler_auditor.h"
#include "src/fault/overload.h"
#include "src/forensics/scenario_spec.h"
#include "src/net/link.h"
#include "src/nic/nic_rx.h"
#include "src/packet/packet.h"
#include "src/scenario/chaos_scenario.h"
#include "src/sim/event_loop.h"
#include "src/tcp/tcp_endpoint.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

// One pressure window riding a bulk transfer — the shape every chaos-level
// test here starts from. Kept identical across tests so digests computed in
// different tests cross-check each other.
ChaosOptions BaseOverloadOptions(OverloadKind kind, size_t shards, size_t pool_cap = 4'096) {
  ChaosOptions opt;
  opt.seed = 1;
  opt.family = FaultFamily::kDropBurst;
  opt.transfer_bytes = 1'500'000;
  opt.shards = shards;
  opt.overload.pool_capacity = pool_cap;
  OverloadWindow w;
  w.kind = kind;
  w.start = Ms(5);
  w.end = Ms(15);
  w.flows = 96;
  w.packets_per_flow = 4;
  w.burst_interval = Us(150);
  w.cap_pct = 25;
  opt.overload.windows.push_back(w);
  return opt;
}

constexpr OverloadKind kAllKinds[] = {OverloadKind::kIncast, OverloadKind::kChurn,
                                      OverloadKind::kBrownout};

// ---------------------------------------------------------------------------
// Graceful degradation: every stack survives every pressure kind.

TEST(OverloadChaosTest, StackMatrixSurvivesEveryPressureKind) {
  for (StackKind stack : {StackKind::kJuggler, StackKind::kVanilla, StackKind::kPresto}) {
    for (OverloadKind kind : kAllKinds) {
      const ChaosOptions opt = BaseOverloadOptions(kind, /*shards=*/0);
      const ChaosEngineResult r = RunChaosEngineStack(opt, stack);
      EXPECT_TRUE(r.completed) << r.engine << " under " << OverloadKindName(kind);
      EXPECT_EQ(r.violations, 0u) << r.engine << " under " << OverloadKindName(kind)
                                  << (r.violation_messages.empty()
                                          ? ""
                                          : ": " + r.violation_messages.front());
      if (kind != OverloadKind::kBrownout) {
        EXPECT_GT(r.overload.injected_packets, 0u);
      } else {
        EXPECT_GT(r.overload.brownouts, 0u);
        EXPECT_EQ(r.overload.brownouts, r.overload.cap_restores);
      }
      EXPECT_EQ(r.overload_pool_leaked, 0u) << r.engine << " under " << OverloadKindName(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Shard invariance: the digest is byte-identical for any worker count, and
// full teardown proves zero leaked pool packets.

TEST(OverloadChaosTest, DigestInvariantAcrossShardCounts) {
  for (OverloadKind kind : kAllKinds) {
    uint64_t digest1 = 0;
    for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
      const ChaosOptions opt = BaseOverloadOptions(kind, shards);
      const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
      ASSERT_TRUE(r.completed) << OverloadKindName(kind) << " shards=" << shards;
      ASSERT_EQ(r.violations, 0u) << OverloadKindName(kind) << " shards=" << shards;
      EXPECT_EQ(r.overload_pool_leaked, 0u) << OverloadKindName(kind) << " shards=" << shards;
      if (shards == 1) {
        digest1 = r.digest;
      } else {
        EXPECT_EQ(r.digest, digest1)
            << OverloadKindName(kind) << ": shards=" << shards << " diverged from shards=1";
      }
    }
  }
}

TEST(OverloadChaosTest, DigestIsReproducibleAndSensitive) {
  const ChaosOptions opt = BaseOverloadOptions(OverloadKind::kChurn, /*shards=*/1);
  const ChaosEngineResult a = RunChaosEngineStack(opt, StackKind::kJuggler);
  const ChaosEngineResult b = RunChaosEngineStack(opt, StackKind::kJuggler);
  EXPECT_EQ(a.digest, b.digest);
  ChaosOptions changed = opt;
  changed.overload.windows[0].flows += 1;
  const ChaosEngineResult c = RunChaosEngineStack(changed, StackKind::kJuggler);
  EXPECT_NE(a.digest, c.digest) << "overload intensity must feed the digest";
}

// ---------------------------------------------------------------------------
// Drop conservation under a cap tight enough that the storm is refused
// thousands of times: zero violations IS the conservation proof, because
// FinalCheck cross-checks pool refusals against the per-layer drop counters
// and flags any shed packet that went unaccounted.

TEST(OverloadChaosTest, TightCapShedsVisiblyAndConserves) {
  ChaosOptions opt = BaseOverloadOptions(OverloadKind::kIncast, /*shards=*/1,
                                         /*pool_cap=*/96);
  opt.obs.metrics = true;
  const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.violations, 0u) << (r.violation_messages.empty()
                                      ? ""
                                      : r.violation_messages.front());
  EXPECT_GT(r.overload_pool_exhausted, 1'000u) << "cap=96 must actually refuse the storm";
  EXPECT_EQ(r.overload_pool_leaked, 0u);
  // The pools keep their occupancy high watermark at every acquire, so the
  // peak is exact however briefly it lasted: the storm fills a pool to the
  // cap, and every capped acquisition goes through TryAcquire, so it never
  // passes it.
  EXPECT_EQ(r.overload_peak_pool, 96u) << "each domain pool's occupancy is exact";
  // The receiver's pool refuses some arrivals crossing from the sender;
  // conservation (zero violations) counts them through sim.crossing_drops.
  const uint64_t crossing_drops = r.obs.metrics.CounterValue("sim.crossing_drops", "");
  EXPECT_GT(crossing_drops, 0u) << "cap=96 must refuse crossing arrivals too";

  // The same tight-cap run is still shard-invariant: refusal verdicts
  // depend on each domain pool's occupancy, which moves only with that
  // domain's own events.
  ChaosOptions opt8 = opt;
  opt8.shards = 8;
  const ChaosEngineResult r8 = RunChaosEngineStack(opt8, StackKind::kJuggler);
  EXPECT_EQ(r8.digest, r.digest);
  EXPECT_EQ(r8.overload_pool_exhausted, r.overload_pool_exhausted);
  EXPECT_EQ(r8.obs.metrics.CounterValue("sim.crossing_drops", ""), crossing_drops);
}

TEST(OverloadChaosTest, RingCapTailDropsAreCountedNotFatal) {
  ChaosOptions opt = BaseOverloadOptions(OverloadKind::kIncast, /*shards=*/1);
  opt.overload.ring_capacity = 16;
  const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_GT(r.overload_ring_drops, 0u) << "a 16-slot ring must tail-drop the storm";
}

// ---------------------------------------------------------------------------
// Recovery contract.

// Regression: the workload can finish while pressure windows are still
// open. The run must keep draining until the last window closes before the
// auditor asserts quiescence — mid-storm gro_table buffering is legitimate
// transient state, not a leak.
TEST(OverloadChaosTest, PressureOutlivingTheWorkloadStaysClean) {
  for (size_t shards : {size_t{0}, size_t{2}}) {
    ChaosOptions opt = BaseOverloadOptions(OverloadKind::kChurn, shards);
    opt.transfer_bytes = 150'000;  // finishes well before the window's Ms(15) end
    const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
    EXPECT_TRUE(r.completed) << "shards=" << shards;
    EXPECT_EQ(r.violations, 0u)
        << "shards=" << shards
        << (r.violation_messages.empty() ? "" : ": " + r.violation_messages.front());
    EXPECT_GE(r.finish_time, Ms(15)) << "run must outlast the pressure window";
    EXPECT_EQ(r.overload.windows_started, r.overload.windows_ended);
  }
}

// A one-domain (shards=0) run caps its own domain pool, never the
// long-lived thread-local pool every later test in this process shares.
TEST(OverloadChaosTest, UnpartitionedRunLeavesThreadPoolCapacityAlone) {
  const size_t before = PacketPool::ThreadLocal().capacity();
  const ChaosOptions opt = BaseOverloadOptions(OverloadKind::kBrownout, /*shards=*/0);
  const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(PacketPool::ThreadLocal().capacity(), before);
}

// ---------------------------------------------------------------------------
// Observability: the per-run metrics snapshot is worker-count invariant.

TEST(OverloadChaosTest, MetricsSnapshotIsShardInvariant) {
  ChaosOptions opt = BaseOverloadOptions(OverloadKind::kIncast, /*shards=*/1);
  opt.obs.metrics = true;
  const ChaosEngineResult r1 = RunChaosEngineStack(opt, StackKind::kJuggler);
  opt.shards = 2;
  const ChaosEngineResult r2 = RunChaosEngineStack(opt, StackKind::kJuggler);
  ASSERT_TRUE(r1.obs.metrics_enabled);
  ASSERT_TRUE(r2.obs.metrics_enabled);
  EXPECT_EQ(r1.obs.MetricsJson().Dump(2), r2.obs.MetricsJson().Dump(2));
}

// ---------------------------------------------------------------------------
// Satellite: overload pressure against an unbounded link is a setup bug.

TEST(OverloadChaosTest, UnboundedLinkIsFlaggedAsSetupBug) {
  EventLoop loop;
  LinkConfig bounded;
  bounded.queue_limit_bytes = 1'000'000;
  LinkConfig unbounded;
  unbounded.queue_limit_bytes = 0;
  Link good(&loop, "good", bounded, nullptr);
  Link bad(&loop, "bad", unbounded, nullptr);
  AuditLog log;
  CheckLinksBounded({&good}, "t", &log);
  EXPECT_EQ(log.violations(), 0u);
  CheckLinksBounded({&good, &bad, nullptr}, "t", &log);
  EXPECT_EQ(log.violations(), 1u);
  ASSERT_FALSE(log.messages().empty());
  EXPECT_NE(log.messages().front().find("bad"), std::string::npos);
}

// ---------------------------------------------------------------------------
// OverloadAuditor checks driven directly, without a chaos run.

TEST(OverloadAuditorTest, StallNeedsNoEventPending) {
  for (const bool pending : {true, false}) {
    OverloadWiring w;
    w.progress = [pending] { return OverloadWiring::Progress{1234, pending}; };
    AuditLog log;
    OverloadAuditor auditor("t/overload", w, {}, &log);
    // No event executes and no byte moves in any window. With an event
    // pending (an RTO armed far ahead) that is waiting, not a wedge.
    auditor.Probe(Ms(10), 5'000);
    for (int window = 1; window <= 20; ++window) {
      auditor.Probe(Ms(10) * (window + 1), 5'000);
      const uint64_t want = !pending && window >= 5 ? 1 : 0;
      EXPECT_EQ(log.violations(), want) << "pending=" << pending << " window=" << window;
    }
  }
}

class NullSegmentSink : public SegmentSink {
 public:
  void OnSegment(Segment) override {}
};

TEST(OverloadAuditorTest, HeldBytesPastTheirDeadlineAreFlagged) {
  EventLoop loop;
  CpuCostModel costs;
  NullSegmentSink sink;
  AuditLog gro_log;
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(10);
  jcfg.ofo_timeout = Ms(1);
  NicRx nic(
      &loop, &costs, NicRxConfig{},
      [&gro_log, jcfg](const CpuCostModel* c) -> std::unique_ptr<GroEngine> {
        return std::make_unique<JugglerAuditor>(std::make_unique<Juggler>(c, jcfg), &gro_log);
      },
      &sink);
  nic.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  loop.RunUntil(Us(200));  // flushed by the inseq timeout
  // Segment 1 is lost: 2 and 3 wait out of order for the ofo timeout.
  nic.Accept(MakeDataPacket(TestFlow(), 2 * kMss, kMss));
  nic.Accept(MakeDataPacket(TestFlow(), 3 * kMss, kMss));
  loop.RunUntil(Us(400));
  const Juggler::AuditView view = static_cast<JugglerAuditor*>(nic.gro(0))->inner()->Audit();
  ASSERT_EQ(view.flows.size(), 1u);
  ASSERT_EQ(view.flows[0].seq_next, kMss);
  ASSERT_EQ(view.flows[0].buffered_bytes, 2u * kMss);
  const TimeNs deadline = view.flows[0].deadline;
  ASSERT_GT(deadline, loop.now());

  OverloadWiring w;
  w.receiver_nic = &nic;
  AuditLog log;
  OverloadAuditor auditor("t/overload", w, {}, &log);
  // Before the flow's deadline the bytes are in flight.
  auditor.FinalCheck(deadline - 1, 0, false, OverloadStats{});
  EXPECT_TRUE(log.clean());
  // From the deadline on a timeout should have flushed them, but the timer
  // never ran: they are stranded.
  auditor.FinalCheck(deadline, 0, false, OverloadStats{});
  ASSERT_EQ(log.violations(), 1u);
  EXPECT_NE(log.messages().front().find("buffered bytes"), std::string::npos);
  EXPECT_TRUE(gro_log.clean());
}

// ---------------------------------------------------------------------------
// PacketPool: the bounded-resource primitive itself.

TEST(OverloadPoolTest, TryAcquireRefusesAtCapWithoutAborting) {
  PacketPool pool;
  pool.set_capacity(4);
  std::vector<Packet*> live;
  for (int i = 0; i < 4; ++i) {
    Packet* p = pool.TryAcquire();
    ASSERT_NE(p, nullptr);
    live.push_back(p);
  }
  EXPECT_EQ(pool.TryAcquire(), nullptr);
  EXPECT_EQ(pool.TryAcquire(), nullptr);
  EXPECT_EQ(pool.exhausted(), 2u);
  EXPECT_EQ(pool.outstanding(), 4u);
  pool.Release(live.back());
  live.pop_back();
  Packet* again = pool.TryAcquire();
  EXPECT_NE(again, nullptr) << "a release must reopen the cap";
  live.push_back(again);
  for (Packet* p : live) {
    pool.Release(p);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(OverloadPoolTest, OutstandingClampsWhenReleasesExceedAcquires) {
  // An unstamped packet allocated from one pool but released into another
  // pool's ledger skews released past acquired. The occupancy view must
  // clamp at zero instead of wrapping to "infinitely full" — the wrap turns
  // a bookkeeping skew into a permanent allocation refusal.
  PacketPool source;
  PacketPool sink;
  Packet* p = source.Acquire();
  sink.Release(p);  // sink's ledger: 0 acquired, 1 released
  EXPECT_EQ(sink.outstanding(), 0u);
  sink.set_capacity(1);
  Packet* q = sink.TryAcquire();
  EXPECT_NE(q, nullptr) << "clamped occupancy must not refuse below the cap";
  sink.Release(q);
  EXPECT_EQ(source.outstanding(), 1u) << "the source still counts its live packet";
}

TEST(OverloadPoolTest, FactoryTryMakeKeepsIdSequenceDenseAcrossRefusals) {
  PacketPool capped;
  capped.set_capacity(1);
  PacketPool* prev = PacketPool::SwapThreadPool(&capped);
  PacketFactory factory;
  PacketPtr first = factory.TryMake();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 0u);
  EXPECT_EQ(factory.TryMake(), nullptr);
  EXPECT_EQ(factory.TryMake(), nullptr);
  first.reset();
  PacketPtr second = factory.TryMake();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, 1u) << "refusals must not consume ids";
  second.reset();
  PacketPool::SwapThreadPool(prev);
  EXPECT_EQ(capped.exhausted(), 2u);
}

// ---------------------------------------------------------------------------
// TCP persist timer: receive-side overload can close the advertised window
// to zero (the app-core backlog ate the whole rcv_buf). The sender must
// probe — with one already-ACKed byte, RFC 1122 style — instead of sleeping
// forever, because the receiver only ACKs on arriving data.

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

// Minimal pipe: each wire packet becomes a one-packet segment after a fixed
// delay (the tcp_test harness, trimmed to what this test needs).
class PipeSink : public PacketSink {
 public:
  PipeSink(EventLoop* loop, TimeNs delay) : loop_(loop), delay_(delay) {}
  void set_target(TcpEndpoint* target) { target_ = target; }
  void Accept(PacketPtr packet) override {
    const Segment s = PacketToSegment(*packet);
    loop_->Schedule(delay_, [this, s] { target_->OnSegment(s); });
  }

 private:
  EventLoop* loop_;
  TimeNs delay_;
  TcpEndpoint* target_ = nullptr;
};

TEST(OverloadTcpTest, ZeroWindowProbeBreaksReceiveSideStall) {
  EventLoop loop;
  PacketFactory factory;
  PipeSink a_to_b(&loop, Us(10));
  PipeSink b_to_a(&loop, Us(10));
  NicTx a_nic(&loop, &factory, &a_to_b);
  NicTx b_nic(&loop, &factory, &b_to_a);
  const FiveTuple flow = TestFlow();
  TcpEndpoint a(&loop, TcpConfig{}, flow, &a_nic);
  TcpEndpoint b(&loop, TcpConfig{}, flow.Reversed(), &b_nic);
  a_to_b.set_target(&b);
  b_to_a.set_target(&a);

  // Receive-side overload: pressure >= rcv_buf closes the advertised window
  // to zero the moment the first ACK goes out.
  bool pressured = true;
  b.set_rwnd_pressure([&] { return pressured ? uint64_t{6'000'000} : uint64_t{0}; });

  a.Send(300'000);
  loop.RunUntil(Ms(200));
  EXPECT_LT(b.bytes_delivered(), 300'000u) << "the zero window must gate the transfer";
  EXPECT_GT(a.sender_stats().zero_window_probes, 0u)
      << "a stalled sender with zero inflight must be probing";

  // Pressure subsides. The next probe's DSACK ACK carries the reopened
  // window and the transfer completes — no data arrival was needed to
  // unblock it.
  pressured = false;
  loop.RunUntil(Ms(800));
  EXPECT_EQ(b.bytes_delivered(), 300'000u);
  EXPECT_EQ(a.bytes_acked(), 300'000u);
}

TEST(OverloadTcpTest, ProbesStopOnceWindowReopens) {
  EventLoop loop;
  PacketFactory factory;
  PipeSink a_to_b(&loop, Us(10));
  PipeSink b_to_a(&loop, Us(10));
  NicTx a_nic(&loop, &factory, &a_to_b);
  NicTx b_nic(&loop, &factory, &b_to_a);
  const FiveTuple flow = TestFlow();
  TcpEndpoint a(&loop, TcpConfig{}, flow, &a_nic);
  TcpEndpoint b(&loop, TcpConfig{}, flow.Reversed(), &b_nic);
  a_to_b.set_target(&b);
  b_to_a.set_target(&a);

  bool pressured = true;
  b.set_rwnd_pressure([&] { return pressured ? uint64_t{6'000'000} : uint64_t{0}; });
  a.Send(100'000);
  loop.RunUntil(Ms(100));
  pressured = false;
  loop.RunUntil(Ms(500));
  ASSERT_EQ(b.bytes_delivered(), 100'000u);
  const uint64_t probes_at_completion = a.sender_stats().zero_window_probes;
  loop.RunUntil(Ms(1'000));
  EXPECT_EQ(a.sender_stats().zero_window_probes, probes_at_completion)
      << "no probes after the transfer completed";
}

// ---------------------------------------------------------------------------
// Serialization: OverloadWindow JSON, ScenarioSpec fields, sampler
// determinism — what lets the fuzzer carry overload scenarios in repro
// bundles and the shrinker edit them.

TEST(OverloadJsonTest, WindowRoundTripsThroughJson) {
  OverloadWindow w;
  w.start = Ms(7);
  w.end = Ms(19);
  w.kind = OverloadKind::kChurn;
  w.flows = 77;
  w.packets_per_flow = 3;
  w.burst_interval = Us(123);
  w.cap_pct = 33;
  OverloadWindow back;
  std::string error;
  ASSERT_TRUE(OverloadWindowFromJson(OverloadWindowToJson(w), &back, &error)) << error;
  EXPECT_TRUE(w == back);

  std::vector<OverloadWindow> windows = {w, w};
  windows[1].kind = OverloadKind::kBrownout;
  std::vector<OverloadWindow> windows_back;
  ASSERT_TRUE(OverloadWindowsFromJson(OverloadWindowsToJson(windows), &windows_back, &error))
      << error;
  ASSERT_EQ(windows_back.size(), 2u);
  EXPECT_TRUE(windows[0] == windows_back[0]);
  EXPECT_TRUE(windows[1] == windows_back[1]);
}

TEST(OverloadJsonTest, WindowRejectsUnknownKind) {
  Json j = OverloadWindowToJson(OverloadWindow{});
  j.Set("kind", Json::Str("tsunami"));
  OverloadWindow out;
  std::string error;
  EXPECT_FALSE(OverloadWindowFromJson(j, &out, &error));
  EXPECT_FALSE(error.empty());
}

// A spec's overload block reaches the ChaosOptions a replayed bundle runs:
// windows and both caps survive the trip through JSON.
TEST(OverloadSpecTest, SpecCarriesOverloadIntoChaosOptions) {
  ScenarioSpec spec;
  OverloadWindow w;
  w.start = Ms(6);
  w.end = Ms(11);
  w.kind = OverloadKind::kIncast;
  spec.chaos.overload.windows.push_back(w);
  spec.chaos.overload.pool_capacity = 2'222;
  spec.chaos.overload.ring_capacity = 128;
  ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::FromJson(spec.ToJson(), &back, &error)) << error;
  const ChaosOptions& opt = back.chaos;
  ASSERT_EQ(opt.overload.windows.size(), 1u);
  EXPECT_TRUE(opt.overload.windows[0] == w);
  EXPECT_EQ(opt.overload.pool_capacity, 2'222u);
  EXPECT_EQ(opt.overload.ring_capacity, 128u);
}

TEST(OverloadSpecTest, SampledOverloadSpecsAreDeterministicAndWellFormed) {
  SampleLimits limits;
  limits.overload_prob = 1.0;
  Rng r1(77);
  Rng r2(77);
  for (int i = 0; i < 16; ++i) {
    const ScenarioSpec s1 = SampleScenarioSpec(&r1, limits);
    const ScenarioSpec s2 = SampleScenarioSpec(&r2, limits);
    ASSERT_EQ(s1.ToJson().Dump(2), s2.ToJson().Dump(2)) << "spec " << i;
    ASSERT_FALSE(s1.chaos.overload.windows.empty()) << "overload_prob=1 must emit windows";
    for (const OverloadWindow& w : s1.chaos.overload.windows) {
      EXPECT_LT(w.start, w.end);
      EXPECT_GE(w.flows, 1u);
      EXPECT_GE(w.packets_per_flow, 1u);
      EXPECT_GT(w.burst_interval, 0);
      EXPECT_GE(w.cap_pct, 1u);
      EXPECT_LE(w.cap_pct, 100u);
      EXPECT_LT(w.end, s1.chaos.time_limit / 2) << "the tail must stay pressure-free";
    }
    EXPECT_GE(s1.chaos.overload.pool_capacity, 1'024u);

    // Round trip through JSON, byte-stably, with the overload block intact.
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::Parse(s1.ToJson().Dump(2), &parsed, &error)) << error;
    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::FromJson(parsed, &back, &error)) << error;
    EXPECT_EQ(back.ToJson().Dump(2), s1.ToJson().Dump(2));
  }

  // The overload draw must come from its own seed-derived stream: turning
  // it off shifts no other field of the sampled spec.
  SampleLimits no_ovl = limits;
  no_ovl.overload_prob = 0.0;
  Rng r3(77);
  const ScenarioSpec with = [&] {
    Rng r(77);
    return SampleScenarioSpec(&r, limits);
  }();
  const ScenarioSpec without = SampleScenarioSpec(&r3, no_ovl);
  EXPECT_TRUE(without.chaos.overload.windows.empty());
  EXPECT_EQ(with.chaos.seed, without.chaos.seed);
  EXPECT_EQ(with.chaos.transfer_bytes, without.chaos.transfer_bytes);
  EXPECT_EQ(static_cast<int>(with.chaos.family), static_cast<int>(without.chaos.family));
  EXPECT_EQ(with.chaos.max_flows, without.chaos.max_flows);
}

}  // namespace
}  // namespace juggler
