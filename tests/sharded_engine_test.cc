// Sharded engine: lookahead-window correctness, exception forwarding,
// crossings that copy packets between domain pools, the per-rack Clos
// partition, and the
// headline guarantee — chaos digests are byte-identical no matter how many
// workers multiplex the shard domains.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/packet/packet.h"
#include "src/scenario/chaos_scenario.h"
#include "src/scenario/gro_factories.h"
#include "src/scenario/topologies.h"
#include "src/sim/shard_mailbox.h"
#include "src/sim/sharded_engine.h"
#include "src/util/thread_budget.h"
#include "src/util/time.h"

namespace juggler {
namespace {

// The 1-CPU CI box would clamp every run to one worker and never exercise
// the threaded path; the budget override keeps the thread count honest to
// the requested shard counts.
class ShardedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { setenv("JUGGLER_THREADS", "8", 1); }
  void TearDown() override { unsetenv("JUGGLER_THREADS"); }
};

struct CollectorSink : PacketSink {
  EventLoop* loop;
  std::vector<TimeNs> arrivals;
  explicit CollectorSink(EventLoop* l) : loop(l) {}
  void Accept(PacketPtr) override { arrivals.push_back(loop->now()); }
};

// The window sequence is a function of event times and the lookahead only,
// so the worker counts below must all see the same windows and crossings.
constexpr size_t kWorkerCounts[] = {1, 2, 4};

// Regression: a packet emitted at time t crossing with latency L arrives at
// exactly t + L == the lookahead horizon of the window that emitted it. The
// envelope must survive the barrier (not be dropped as stale) and execute in
// the next window at precisely that timestamp.
TEST_F(ShardedEngineTest, ArrivalExactlyAtLookaheadHorizonIsDelivered) {
  const TimeNs kLatency = Us(3);
  for (size_t workers : kWorkerCounts) {
    ShardedEngine engine(workers);
    ShardDomain* a = engine.AddDomain("a");
    ShardDomain* b = engine.AddDomain("b");
    RemoteEndpoint* ep = engine.Connect(a, b, kLatency);
    CollectorSink sink(&b->loop());
    ep->set_sink(&sink);

    // Window 1: m = 0, horizon = 0 + L. The emission at t=0 arrives at
    // exactly the horizon; a second emission mid-window lands past it.
    // Window 2 runs both arrivals; window 3 pins the clocks to the deadline.
    a->loop().ScheduleAt(0, [&] { ep->Accept(AllocPacket()); });
    a->loop().ScheduleAt(Us(1), [&] { ep->Accept(AllocPacket()); });
    engine.Run(Ms(1));

    ASSERT_EQ(sink.arrivals.size(), 2u) << workers;
    EXPECT_EQ(sink.arrivals[0], kLatency);  // == first window's horizon
    EXPECT_EQ(sink.arrivals[1], Us(1) + kLatency);
    EXPECT_EQ(engine.stats().crossings, 2u);
    EXPECT_EQ(engine.stats().windows, 3u) << workers;
    EXPECT_EQ(engine.stats().workers, std::min<size_t>(workers, 2));
    EXPECT_EQ(b->loop().now(), Ms(1));  // clocks pinned to the deadline
  }
}

// Forwards every arrival back across the engine.
struct Echo : PacketSink {
  RemoteEndpoint* reply = nullptr;
  int hops = 0;
  void Accept(PacketPtr p) override {
    ++hops;
    reply->Accept(std::move(p));
  }
};

// A ping-pong chain across domains: every hop lands exactly on a window
// horizon, for many windows in a row, under real worker threads.
TEST_F(ShardedEngineTest, HorizonPingPongAcrossThreads) {
  const TimeNs kLatency = Us(5);
  for (size_t workers : kWorkerCounts) {
    ShardedEngine engine(workers);
    ShardDomain* a = engine.AddDomain("a");
    ShardDomain* b = engine.AddDomain("b");
    RemoteEndpoint* to_b = engine.Connect(a, b, kLatency);
    RemoteEndpoint* to_a = engine.Connect(b, a, kLatency);
    Echo on_b;
    on_b.reply = to_a;
    Echo on_a;
    on_a.reply = to_b;
    to_b->set_sink(&on_b);
    to_a->set_sink(&on_a);

    a->loop().ScheduleAt(0, [&] { to_b->Accept(AllocPacket()); });
    engine.Run(Us(100));  // 20 hops of 5us each

    EXPECT_EQ(on_b.hops + on_a.hops, 20) << workers;
    // One window per hop time 0, 5, ..., 100; the deadline window's hop
    // emits the 21st crossing, parked in the loop for a later Run.
    EXPECT_EQ(engine.stats().windows, 21u) << workers;
    EXPECT_EQ(engine.stats().crossings, 21u) << workers;
    EXPECT_EQ(engine.stats().workers, std::min<size_t>(workers, 2));
  }
}

// A crossing emitted in the last window of one Run() is injected before
// that Run returns, and executes at exactly emit + L in the next Run().
TEST_F(ShardedEngineTest, CrossingFromFinalWindowArrivesInNextRun) {
  const TimeNs kLatency = Us(5);
  const TimeNs kFirst = Us(10);
  for (size_t workers : kWorkerCounts) {
    ShardedEngine engine(workers);
    ShardDomain* a = engine.AddDomain("a");
    ShardDomain* b = engine.AddDomain("b");
    RemoteEndpoint* ep = engine.Connect(a, b, kLatency);
    CollectorSink sink(&b->loop());
    ep->set_sink(&sink);

    // Both emissions run in the window ending at the first deadline: one
    // just before it, one exactly at it.
    a->loop().ScheduleAt(kFirst - 1, [&] { ep->Accept(AllocPacket()); });
    a->loop().ScheduleAt(kFirst, [&] { ep->Accept(AllocPacket()); });
    engine.Run(kFirst);
    EXPECT_TRUE(sink.arrivals.empty()) << workers;
    EXPECT_EQ(b->loop().now(), kFirst);
    EXPECT_EQ(engine.stats().windows, 2u) << workers;
    EXPECT_EQ(engine.stats().crossings, 2u) << workers;

    engine.Run(Us(20));
    ASSERT_EQ(sink.arrivals.size(), 2u) << workers;
    EXPECT_EQ(sink.arrivals[0], kFirst - 1 + kLatency);
    EXPECT_EQ(sink.arrivals[1], kFirst + kLatency);
    EXPECT_EQ(engine.stats().windows, 4u) << workers;
    EXPECT_EQ(engine.stats().crossings, 2u) << workers;
  }
}

// Keeps every arrival, so the destination pool's occupancy stays visible.
struct HoldingSink : PacketSink {
  std::vector<PacketPtr> held;
  void Accept(PacketPtr p) override { held.push_back(std::move(p)); }
};

// A crossing carries a copy: the source frees its packet into its own pool
// as the frame crosses, and the arrival takes storage from the
// destination's pool, so it counts against that pool's cap. A destination
// at its cap refuses the arrival: it is shed and counted, and nothing is
// scheduled for it.
TEST_F(ShardedEngineTest, CrossingCopiesIntoDestinationPoolAndCapRefusesIt) {
  for (size_t workers : kWorkerCounts) {
    ShardedEngine engine(workers);
    ShardDomain* a = engine.AddDomain("a");
    ShardDomain* b = engine.AddDomain("b");
    RemoteEndpoint* ep = engine.Connect(a, b, Us(1));
    HoldingSink sink;
    ep->set_sink(&sink);
    auto send = [&](Seq seq) {
      PacketPtr p = a->factory().Make();
      p->seq = seq;
      ep->Accept(std::move(p));
    };

    a->loop().ScheduleAt(0, [&] { send(7); });
    engine.Run(Us(10));
    ASSERT_EQ(sink.held.size(), 1u) << workers;
    EXPECT_EQ(sink.held[0]->seq, Seq(7));
    EXPECT_EQ(sink.held[0]->id, 0u);
    EXPECT_EQ(sink.held[0]->pool_origin, &b->pool());
    EXPECT_EQ(a->pool().acquired(), 1u);
    EXPECT_EQ(a->pool().outstanding(), 0u) << "the source frees its frame as it crosses";
    EXPECT_EQ(b->pool().acquired(), 1u);
    EXPECT_EQ(b->pool().outstanding(), 1u);
    EXPECT_EQ(engine.stats().crossings, 1u);
    EXPECT_EQ(engine.stats().crossing_drops, 0u);

    b->pool().set_capacity(b->pool().outstanding());
    const uint64_t b_events = b->executed_events();
    a->loop().ScheduleAt(Us(12), [&] { send(8); });
    engine.Run(Us(20));
    EXPECT_EQ(sink.held.size(), 1u) << workers;
    EXPECT_EQ(engine.stats().crossings, 2u) << "a refused arrival still counts as a crossing";
    EXPECT_EQ(engine.stats().crossing_drops, 1u) << workers;
    EXPECT_EQ(b->pool().exhausted(), 1u);
    EXPECT_EQ(b->pool().acquired(), 1u);
    EXPECT_EQ(b->executed_events(), b_events) << "no arrival event was scheduled";
    EXPECT_EQ(a->pool().acquired(), 2u);
    EXPECT_EQ(a->pool().outstanding(), 0u);
  }
}

// Stress: four tokens circling a four-domain ring for thousands of windows,
// with a per-hop local delay so the domains are never in lockstep. Every
// worker count must see the same arrival sequence in every domain; under
// TSan this exercises thousands of barrier phases on real threads.
TEST_F(ShardedEngineTest, FourDomainRingIsWorkerCountInvariant) {
  constexpr size_t kDomains = 4;
  const TimeNs kLatency = Us(1);
  struct Hop : PacketSink {
    EventLoop* loop = nullptr;
    RemoteEndpoint* next = nullptr;
    std::vector<TimeNs> arrivals;
    void Accept(PacketPtr p) override {
      arrivals.push_back(loop->now());
      const TimeNs hold = static_cast<TimeNs>(arrivals.size() % 7) * 150;
      loop->Schedule(hold, [this, p = std::move(p)]() mutable { next->Accept(std::move(p)); });
    }
  };
  struct Outcome {
    std::vector<std::vector<TimeNs>> arrivals;
    uint64_t windows = 0;
    uint64_t crossings = 0;
  };
  auto run = [&](size_t workers) {
    ShardedEngine engine(workers);
    std::vector<ShardDomain*> domains;
    for (size_t i = 0; i < kDomains; ++i) {
      domains.push_back(engine.AddDomain("d" + std::to_string(i)));
    }
    std::vector<Hop> hops(kDomains);
    for (size_t i = 0; i < kDomains; ++i) {
      hops[i].loop = &domains[i]->loop();
      hops[i].next = engine.Connect(domains[i], domains[(i + 1) % kDomains], kLatency);
    }
    for (size_t i = 0; i < kDomains; ++i) {
      hops[i].next->set_sink(&hops[(i + 1) % kDomains]);
      domains[i]->loop().ScheduleAt(static_cast<TimeNs>(i) * 100,
                                    [&hop = hops[i]] { hop.next->Accept(AllocPacket()); });
    }
    for (TimeNs deadline = Us(500); deadline <= Ms(2); deadline += Us(500)) {
      engine.Run(deadline);
    }
    EXPECT_EQ(engine.stats().workers, workers);
    Outcome o;
    for (const Hop& hop : hops) {
      o.arrivals.push_back(hop.arrivals);
    }
    o.windows = engine.stats().windows;
    o.crossings = engine.stats().crossings;
    return o;
  };
  const Outcome base = run(1);
  size_t total_hops = 0;
  for (const auto& a : base.arrivals) {
    total_hops += a.size();
  }
  EXPECT_EQ(total_hops, 5'516u);
  EXPECT_EQ(base.windows, 1'584u);
  EXPECT_EQ(base.crossings, 5'520u);
  for (size_t workers : {size_t{2}, size_t{4}}) {
    const Outcome o = run(workers);
    EXPECT_EQ(o.arrivals, base.arrivals) << workers;
    EXPECT_EQ(o.windows, base.windows) << workers;
    EXPECT_EQ(o.crossings, base.crossings) << workers;
  }
}

// A throwing event callback surfaces from Run() as the loop's located
// EventLoopCallbackError whichever domain threw and however many workers
// ran it, and the engine (with a packet still in flight) then tears down
// cleanly. When several domains throw in one window, the lowest-indexed
// domain's exception wins at every worker count.
TEST_F(ShardedEngineTest, CallbackExceptionIsForwardedFromRun) {
  auto run = [](size_t workers, std::vector<size_t> throwing) -> std::string {
    ShardedEngine engine(workers);
    ShardDomain* a = engine.AddDomain("a");
    ShardDomain* b = engine.AddDomain("b");
    RemoteEndpoint* ep = engine.Connect(a, b, Us(5));
    CollectorSink sink(&b->loop());
    ep->set_sink(&sink);
    a->loop().ScheduleAt(Us(9), [&] { ep->Accept(AllocPacket()); });
    for (size_t d : throwing) {
      engine.domain(d)->loop().ScheduleAt(Us(10), [d] {
        throw std::runtime_error("planted failure in domain " + std::to_string(d));
      });
    }
    std::string what;
    EXPECT_THROW(
        {
          try {
            engine.Run(Ms(1));
          } catch (const EventLoopCallbackError& e) {
            what = e.what();
            throw;
          }
        },
        EventLoopCallbackError);
    EXPECT_EQ(ThreadBudget::InUse(), 0u);
    EXPECT_TRUE(sink.arrivals.empty());
    return what;
  };
  for (size_t workers : {size_t{1}, size_t{2}}) {
    for (size_t d : {size_t{0}, size_t{1}}) {
      const std::string what = run(workers, {d});
      EXPECT_NE(what.find("planted failure in domain " + std::to_string(d)), std::string::npos)
          << workers << " workers: " << what;
      EXPECT_NE(what.find("t=10000ns"), std::string::npos) << what;
    }
    const std::string both = run(workers, {1, 0});
    EXPECT_NE(both.find("planted failure in domain 0"), std::string::npos)
        << workers << " workers: " << both;
  }
}

// Per-rack Clos partition: a rack (ToR + hosts) and each spine is one
// domain, so only ToR<->spine links cross and the lookahead is the fabric's
// propagation delay. On a real bulk run the worker count must change
// nothing the simulation produces.
TEST_F(ShardedEngineTest, ClosRackPartitionIsWorkerCountInvariant) {
  struct Outcome {
    uint64_t packets = 0;
    uint64_t events = 0;
    uint64_t windows = 0;
    uint64_t crossings = 0;
    uint64_t delivered = 0;
    bool operator==(const Outcome&) const = default;
  };
  constexpr uint64_t kBytesPerPair = 200'000;
  auto run = [&](size_t workers) {
    CpuCostModel costs;
    ShardedEngine engine(workers);
    ClosOptions opt;
    opt.hosts_per_tor = 16;
    opt.host_template.rx.int_coalesce = Us(20);
    opt.host_template.gro_factory = MakeJugglerFactory();
    ShardedClosTestbed t = BuildShardedClos(&engine, &costs, opt);
    std::vector<std::string> names;
    for (size_t i = 0; i < engine.domain_count(); ++i) {
      names.push_back(engine.domain(i)->name());
    }
    EXPECT_EQ(names, (std::vector<std::string>{"rack_a", "rack_b", "spine_0", "spine_1"}));

    std::vector<EndpointPair> pairs;
    for (size_t i = 0; i < t.left_hosts.size(); ++i) {
      pairs.push_back(ConnectHosts(t.left_hosts[i], t.right_hosts[i], 1000, 2000));
      pairs.back().a_to_b->Send(kBytesPerPair);
    }
    EXPECT_EQ(pairs.size(), 16u);
    Outcome o;
    for (TimeNs now = Ms(5); now <= Ms(200) && o.delivered < kBytesPerPair * pairs.size();
         now += Ms(5)) {
      engine.Run(now);
      o.delivered = 0;
      for (const EndpointPair& pair : pairs) {
        o.delivered += pair.b_to_a->bytes_delivered();
      }
    }
    EXPECT_EQ(engine.stats().lookahead, kTopologyLinkDelay);
    EXPECT_EQ(engine.stats().workers, workers);
    for (const auto* side : {&t.left_hosts, &t.right_hosts}) {
      for (Host* h : *side) {
        o.packets += h->nic_rx()->stats().packets_in;
      }
    }
    for (size_t i = 0; i < engine.domain_count(); ++i) {
      o.events += engine.domain(i)->executed_events();
    }
    o.windows = engine.stats().windows;
    o.crossings = engine.stats().crossings;
    return o;
  };
  const Outcome base = run(1);
  EXPECT_EQ(base.delivered, 16 * kBytesPerPair);
  EXPECT_GT(base.crossings, 0u);
  for (size_t workers : {size_t{2}, size_t{4}}) {
    const Outcome o = run(workers);
    EXPECT_EQ(o.packets, base.packets) << workers;
    EXPECT_EQ(o.events, base.events) << workers;
    EXPECT_EQ(o.windows, base.windows) << workers;
    EXPECT_EQ(o.crossings, base.crossings) << workers;
    EXPECT_EQ(o.delivered, base.delivered) << workers;
  }
}

// A clone keeps its own storage's pool bookkeeping, not the source's.
TEST(PacketPoolCrossThread, CloneKeepsOwnOrigin) {
  PacketPool pool{PacketPool::OriginStampTag{}};
  PacketPtr src(pool.Acquire());
  src->seq = 42;
  PacketPtr dup = ClonePacket(*src);  // thread-ambient storage
  EXPECT_EQ(dup->seq, Seq(42));
  EXPECT_EQ(dup->pool_origin, nullptr);
  EXPECT_EQ(src->pool_origin, &pool);
}

// A one-domain engine borrows the constructing thread's idle storage and
// hands it back on teardown, so an engine per run recycles packets. A
// second domain ends the loan.
TEST(PacketPoolCrossThread, OneDomainEngineBorrowsThreadStorage) {
  PacketPool& home = PacketPool::ThreadLocal();
  AllocPacket().reset();
  const size_t idle = home.free_size();
  ASSERT_GT(idle, 0u);
  {
    ShardedEngine engine(1);
    ShardDomain* domain = engine.AddDomain("d");
    EXPECT_EQ(home.free_size(), 0u);
    EXPECT_EQ(domain->pool().free_size(), idle);
  }
  EXPECT_EQ(home.free_size(), idle);
  {
    ShardedEngine engine(1);
    ShardDomain* first = engine.AddDomain("a");
    engine.AddDomain("b");
    EXPECT_EQ(home.free_size(), idle);
    EXPECT_EQ(first->pool().free_size(), 0u);
  }
  EXPECT_EQ(home.free_size(), idle);
}

// Storage handed to an idle pool is trimmed to its compaction watermark.
TEST(PacketPoolCrossThread, MovedStorageIsBoundedByTheWatermark) {
  PacketPool busy;
  std::vector<Packet*> held;
  for (int i = 0; i < 6'000; ++i) {
    held.push_back(busy.Acquire());
  }
  for (Packet* p : held) {
    busy.Release(p);
  }
  ASSERT_EQ(busy.free_size(), held.size());  // a busy pool keeps its storage
  PacketPool idle;
  busy.MoveFreeStorageTo(&idle);
  EXPECT_EQ(busy.free_size(), 0u);
  EXPECT_LT(idle.free_size(), held.size());
  EXPECT_GT(idle.compact_freed(), 0u);
}

TEST(ThreadBudgetTest, EnvOverrideAndNestedDegradation) {
  setenv("JUGGLER_THREADS", "3", 1);
  EXPECT_EQ(ThreadBudget::Total(), 3u);
  const size_t outer = ThreadBudget::Acquire(5);
  EXPECT_EQ(outer, 3u);
  // Budget exhausted: an inner layer still gets its own calling thread.
  const size_t inner = ThreadBudget::Acquire(4);
  EXPECT_EQ(inner, 1u);
  ThreadBudget::Release(inner);
  ThreadBudget::Release(outer);
  EXPECT_EQ(ThreadBudget::InUse(), 0u);
  unsetenv("JUGGLER_THREADS");
  EXPECT_GE(ThreadBudget::Total(), 1u);
}

// The tentpole guarantee: the worker count is a pure performance knob.
// Chaos digests fold every observable counter of the run (delivery, faults,
// retransmits, GRO behavior); they must be byte-identical for 1, 2 and 8
// shards, under both a link-flap schedule and a checksum-drop (corruption)
// schedule, for both engines. The one-domain partition (shards=0) must hand
// TCP the same byte stream; its run digest may differ by same-timestamp tie
// order.
void ExpectShardCountInvariant(FaultFamily family) {
  ChaosOptions opt;
  opt.family = family;
  opt.seed = 7;
  opt.shards = 1;
  const ChaosResult base = RunChaos(opt);
  EXPECT_TRUE(base.ok) << FaultFamilyName(family);
  for (size_t shards : {size_t{2}, size_t{8}}) {
    opt.shards = shards;
    const ChaosResult r = RunChaos(opt);
    EXPECT_TRUE(r.ok) << FaultFamilyName(family) << " shards=" << shards;
    EXPECT_EQ(r.juggler.digest, base.juggler.digest)
        << FaultFamilyName(family) << " shards=" << shards;
    EXPECT_EQ(r.baseline.digest, base.baseline.digest)
        << FaultFamilyName(family) << " shards=" << shards;
    EXPECT_EQ(r.juggler.shard_windows, base.juggler.shard_windows);
    EXPECT_EQ(r.juggler.shard_crossings, base.juggler.shard_crossings);
    EXPECT_EQ(r.juggler.shard_events, base.juggler.shard_events);
  }
  opt.shards = 0;
  const ChaosResult one_domain = RunChaos(opt);
  EXPECT_EQ(one_domain.juggler.stream_digest, base.juggler.stream_digest)
      << FaultFamilyName(family) << " shards=0";
  EXPECT_EQ(one_domain.baseline.stream_digest, base.baseline.stream_digest)
      << FaultFamilyName(family) << " shards=0";
  EXPECT_EQ(one_domain.juggler.bytes_delivered, base.juggler.bytes_delivered)
      << FaultFamilyName(family) << " shards=0";
  EXPECT_EQ(one_domain.baseline.bytes_delivered, base.baseline.bytes_delivered)
      << FaultFamilyName(family) << " shards=0";
}

TEST_F(ShardedEngineTest, ChaosDigestInvariantUnderLinkFlap) {
  ExpectShardCountInvariant(FaultFamily::kLinkFlap);
}

TEST_F(ShardedEngineTest, ChaosDigestInvariantUnderChecksumDrops) {
  ExpectShardCountInvariant(FaultFamily::kCorrupt);
}

// Batch-dispatch determinism: handing a poll round to GRO as one
// ReceiveBatch (the production path, with fold short-cuts) must be
// observably identical to the packet-by-packet reference loop — byte-equal
// digests for both engines, at every shard count, under a reordering-heavy
// fault mix. Any fold that changes a flush decision, a stat, or a cost
// shows up here as a digest split.
TEST_F(ShardedEngineTest, ChaosDigestInvariantUnderPerPacketDispatch) {
  ChaosOptions opt;
  opt.family = FaultFamily::kMixed;
  opt.seed = 11;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    opt.shards = shards;
    opt.per_packet_dispatch = false;
    const ChaosResult batched = RunChaos(opt);
    EXPECT_TRUE(batched.ok) << "batched shards=" << shards;
    opt.per_packet_dispatch = true;
    const ChaosResult per_packet = RunChaos(opt);
    EXPECT_TRUE(per_packet.ok) << "per-packet shards=" << shards;
    EXPECT_EQ(batched.juggler.digest, per_packet.juggler.digest)
        << "juggler batched vs per-packet, shards=" << shards;
    EXPECT_EQ(batched.baseline.digest, per_packet.baseline.digest)
        << "baseline batched vs per-packet, shards=" << shards;
  }
}

// ------------------------------------------------ Bounded mailboxes ------

TEST(ShardMailboxTest, CapacityBoundsBufferAndCountsOverflow) {
  ShardMailbox box;
  EXPECT_EQ(box.capacity(), ShardMailbox::kDefaultCapacity);
  box.set_capacity(4);
  Packet packet;
  for (int i = 0; i < 10; ++i) {
    packet.seq = static_cast<Seq>(i);
    box.Push(packet, /*arrival=*/i, /*sink=*/nullptr);
  }
  // Four buffered copies, six shed at the fuse like any other wire loss.
  EXPECT_EQ(box.buffer().size(), 4u);
  EXPECT_EQ(box.buffer().back().packet.seq, Seq(3));
  EXPECT_EQ(box.high_watermark(), 4u);
  EXPECT_EQ(box.overflow_drops(), 6u);

  // A drained mailbox accepts again; the high watermark is sticky.
  box.Clear();
  box.Push(packet, 0, nullptr);
  EXPECT_EQ(box.buffer().size(), 1u);
  EXPECT_EQ(box.high_watermark(), 4u);
  EXPECT_EQ(box.overflow_drops(), 6u);

  box.set_capacity(0);  // 0 restores the default fuse
  EXPECT_EQ(box.capacity(), ShardMailbox::kDefaultCapacity);
  box.Clear();
}

TEST_F(ShardedEngineTest, TinyMailboxCapacityDegradesVisibly) {
  // With the per-pair fuse forced down to one envelope, crossings overflow
  // and are counted — the run degrades (TCP sees the shed envelopes as
  // loss) instead of buffering without bound, and the stats surface it.
  ChaosOptions opt;
  opt.seed = 3;
  opt.family = FaultFamily::kDropBurst;
  opt.transfer_bytes = 200'000;
  opt.time_limit = Ms(200);
  opt.shards = 2;
  opt.shard_mailbox_capacity = 1;
  const ChaosEngineResult starved = RunChaosEngineStack(opt, StackKind::kJuggler);
  EXPECT_LE(starved.shard_mailbox_hwm, 1u);
  EXPECT_GT(starved.shard_mailbox_overflows, 0u);

  // Control: the default fuse never trips on a healthy run.
  opt.shard_mailbox_capacity = 0;
  opt.time_limit = Ms(800);
  const ChaosEngineResult healthy = RunChaosEngineStack(opt, StackKind::kJuggler);
  EXPECT_TRUE(healthy.completed);
  EXPECT_EQ(healthy.shard_mailbox_overflows, 0u);
  EXPECT_GT(healthy.shard_mailbox_hwm, 0u);
  EXPECT_LT(healthy.shard_mailbox_hwm, ShardMailbox::kDefaultCapacity);
}

}  // namespace
}  // namespace juggler
