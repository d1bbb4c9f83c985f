// Host assembly and topology-builder tests: segment demux, app-core
// pinning and backpressure, RED behaviour, periodic sampling, the wiring
// invariants of the three experiment topologies, and a golden of the Clos
// and Dumbbell builders' exact outcomes.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/qos/priority_controller.h"
#include "src/scenario/gro_factories.h"
#include "src/scenario/sampler.h"
#include "src/scenario/topologies.h"
#include "src/util/json.h"
#include "src/workload/message_stream.h"
#include "src/workload/rpc_generator.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

NetFpgaOptions TwoHostOptions() {
  NetFpgaOptions opt;
  opt.link_rate_bps = 10 * kGbps;
  opt.reorder_delay = 0;
  opt.sender.gro_factory = MakeStandardGroFactory();
  opt.receiver = opt.sender;
  return opt;
}

TEST(HostTest, DemuxRoutesToCorrectEndpoint) {
  SimWorld world;
  NetFpgaTestbed t = BuildNetFpga(&world, TwoHostOptions());
  EndpointPair c1 = ConnectHosts(t.sender, t.receiver, 1000, 2000);
  EndpointPair c2 = ConnectHosts(t.sender, t.receiver, 1001, 2000);
  c1.a_to_b->Send(100'000);
  c2.a_to_b->Send(50'000);
  world.loop.RunUntil(Ms(50));
  EXPECT_EQ(c1.b_to_a->bytes_delivered(), 100'000u);
  EXPECT_EQ(c2.b_to_a->bytes_delivered(), 50'000u);
  EXPECT_EQ(t.receiver->stray_segments(), 0u);
  EXPECT_EQ(t.sender->stray_segments(), 0u);
}

TEST(HostTest, StraySegmentsCounted) {
  SimWorld world;
  NetFpgaTestbed t = BuildNetFpga(&world, TwoHostOptions());
  // No endpoint registered: inject a segment for an unknown flow.
  Segment s;
  s.flow = TestFlow();
  s.payload_len = 100;
  s.mtu_count = 1;
  s.flags = kFlagAck;
  t.receiver->OnSegment(s);
  world.loop.Run();
  EXPECT_EQ(t.receiver->stray_segments(), 1u);
}

TEST(HostTest, FlowsPinToStableAppCores) {
  SimWorld world;
  NetFpgaOptions opt = TwoHostOptions();
  opt.receiver.num_app_cores = 4;
  opt.receiver.rx.num_queues = 4;
  NetFpgaTestbed t = BuildNetFpga(&world, TwoHostOptions());
  // app_core_for is deterministic per flow.
  const FiveTuple inbound = TestFlow();
  EXPECT_EQ(t.receiver->app_core_for(inbound), t.receiver->app_core_for(inbound));
}

TEST(HostTest, AppCoreChargedForDeliveredSegments) {
  SimWorld world;
  NetFpgaTestbed t = BuildNetFpga(&world, TwoHostOptions());
  EndpointPair pair = ConnectHosts(t.sender, t.receiver, 1000, 2000);
  pair.a_to_b->Send(1'000'000);
  world.loop.RunUntil(Ms(50));
  EXPECT_GT(t.receiver->app_core()->busy_ns(), 0);
  // Sender's app core only processed ACKs: far cheaper.
  EXPECT_GT(t.receiver->app_core()->busy_ns(), t.sender->app_core()->busy_ns());
}

TEST(HostTest, PendingRxBytesDrainToZero) {
  SimWorld world;
  NetFpgaTestbed t = BuildNetFpga(&world, TwoHostOptions());
  EndpointPair pair = ConnectHosts(t.sender, t.receiver, 1000, 2000);
  pair.a_to_b->Send(500'000);
  world.loop.RunUntil(Ms(100));
  EXPECT_EQ(t.receiver->pending_rx_bytes(), 0u);
}

TEST(TopologyTest, ClosRoutesAllPairs) {
  SimWorld world;
  ClosOptions opt;
  opt.hosts_per_tor = 4;
  opt.host_template.gro_factory = MakeJugglerFactory();
  ClosTestbed t = BuildClos(&world, opt);
  // Every left->right pair can exchange data.
  std::vector<EndpointPair> pairs;
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      pairs.push_back(ConnectHosts(t.left_hosts[i], t.right_hosts[j],
                                   static_cast<uint16_t>(1000 + j), 2000));
      pairs.back().a_to_b->Send(10'000);
    }
  }
  world.loop.RunUntil(Ms(100));
  for (const auto& pair : pairs) {
    EXPECT_EQ(pair.b_to_a->bytes_delivered(), 10'000u);
  }
  EXPECT_EQ(t.tor_a->dropped_no_route(), 0u);
  EXPECT_EQ(t.tor_b->dropped_no_route(), 0u);
}

TEST(TopologyTest, ClosRightToLeftWorksToo) {
  SimWorld world;
  ClosOptions opt;
  opt.hosts_per_tor = 2;
  opt.host_template.gro_factory = MakeJugglerFactory();
  ClosTestbed t = BuildClos(&world, opt);
  EndpointPair pair = ConnectHosts(t.right_hosts[0], t.left_hosts[1], 1000, 2000);
  pair.a_to_b->Send(100'000);
  world.loop.RunUntil(Ms(50));
  EXPECT_EQ(pair.b_to_a->bytes_delivered(), 100'000u);
}

TEST(TopologyTest, DumbbellCrossTraffic) {
  SimWorld world;
  HostConfig host;
  host.gro_factory = MakeJugglerFactory();
  DumbbellTestbed t = BuildDumbbell(&world, host);
  EndpointPair a = ConnectHosts(t.sender1, t.receiver2, 1000, 2000);
  EndpointPair b = ConnectHosts(t.sender2, t.receiver1, 1001, 2000);
  a.a_to_b->Send(200'000);
  b.a_to_b->Send(200'000);
  world.loop.RunUntil(Ms(50));
  EXPECT_EQ(a.b_to_a->bytes_delivered(), 200'000u);
  EXPECT_EQ(b.b_to_a->bytes_delivered(), 200'000u);
}

TEST(TopologyTest, NetFpgaReorderOnlyForwardPath) {
  SimWorld world;
  NetFpgaOptions opt = TwoHostOptions();
  opt.reorder_delay = Us(500);
  opt.receiver.gro_factory = MakeJugglerFactory(JugglerConfig{
      .inseq_timeout = Us(52), .ofo_timeout = Us(600)});
  NetFpgaTestbed t = BuildNetFpga(&world, opt);
  EndpointPair pair = ConnectHosts(t.sender, t.receiver, 1000, 2000);
  pair.a_to_b->Send(2'000'000);
  world.loop.RunUntil(Ms(100));
  EXPECT_EQ(pair.b_to_a->bytes_delivered(), 2'000'000u);
  EXPECT_GT(t.reorder->packets_through(), 1000u);
}

TEST(PeriodicTaskTest, FiresUntilStopTime) {
  EventLoop loop;
  int fires = 0;
  PeriodicTask task(&loop, Ms(1), Ms(10), [&] { ++fires; });
  loop.Run();
  EXPECT_EQ(fires, 10);
  EXPECT_LE(loop.now(), Ms(10));
}

TEST(RedTest, DropsRampWithOccupancy) {
  EventLoop loop;
  PacketFactory f;
  class Sink : public PacketSink {
   public:
    void Accept(PacketPtr) override {}
  } sink;
  LinkConfig cfg;
  cfg.rate_bps = 1 * kGbps;
  cfg.queue_limit_bytes = 200 * (kMss + kPerPacketWireOverhead);
  cfg.red = true;
  cfg.red_seed = 5;
  Link link(&loop, "l", cfg, &sink);
  // Flood: occupancy climbs through the RED band; some but not all drop.
  for (int i = 0; i < 400; ++i) {
    PacketPtr p = f.Make();
    p->flow = TestFlow();
    p->payload_len = kMss;
    link.Accept(std::move(p));
  }
  EXPECT_GT(link.stats().red_drops, 0u);
  EXPECT_LT(link.stats().red_drops, 400u);
  loop.Run();
}

TEST(GroFactoryTest, EachFactoryMakesDistinctEngines) {
  CpuCostModel costs;
  auto j = MakeJugglerFactory()( &costs);
  auto s = MakeStandardGroFactory()(&costs);
  auto l = MakeLinkedListGroFactory()(&costs);
  auto p = MakePrestoGroFactory()(&costs);
  EXPECT_EQ(j->name(), "juggler");
  EXPECT_EQ(s->name(), "standard_gro");
  EXPECT_EQ(l->name(), "linkedlist_gro");
  EXPECT_EQ(p->name(), "presto_gro");
}

// ------------------------------------------------------ topology golden --
//
// The Clos and Dumbbell builders fix their link rates, delays, buffers and
// RED seeds, so a run's exact outcome pins all of them. Each digest folds,
// in build order, every flow's delivered bytes, every link's LinkStats, the
// receivers' GroStats, the senders' TcpSenderStats and the executed-event
// count.

#ifndef JUGGLER_TEST_GOLDEN_DIR
#define JUGGLER_TEST_GOLDEN_DIR "tests/golden"
#endif

// FNV-1a over 64-bit words.
struct OutcomeDigest {
  uint64_t h = 1469598103934665603ULL;
  uint64_t delivered = 0;
  uint64_t events = 0;

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void MixFlow(const EndpointPair& pair) {
    delivered += pair.b_to_a->bytes_delivered();
    Mix(pair.b_to_a->bytes_delivered());
  }
  void MixLinks(const Fabric& fabric) {
    for (const auto& link : fabric.links) {
      const LinkStats& s = link->stats();
      for (uint64_t v : {s.packets_tx, s.bytes_tx, s.drops, s.red_drops, s.ecn_marks,
                         s.down_drops, s.down_transitions}) {
        Mix(v);
      }
      Mix(static_cast<uint64_t>(s.max_queue_bytes));
    }
  }
  void MixReceiver(Host* host) {
    const GroStats g = host->nic_rx()->TotalGroStats();
    for (uint64_t v : {g.packets_in, g.acks_in, g.data_packets_in, g.ooo_packets,
                       g.segments_out, g.data_segments_out, g.mtus_out, g.evictions}) {
      Mix(v);
    }
    for (uint64_t v : g.flush_by_reason) {
      Mix(v);
    }
  }
  void MixSender(const TcpEndpoint* sender) {
    const TcpSenderStats& s = sender->sender_stats();
    for (uint64_t v : {s.bytes_sent, s.bytes_acked, s.acks_in, s.dupacks_in,
                       s.fast_retransmits, s.rtos, s.retransmitted_bytes,
                       s.spurious_retransmits_detected, s.rto_backoffs,
                       s.zero_window_probes}) {
      Mix(v);
    }
  }
  void MixEvents(uint64_t executed) {
    events = executed;
    Mix(executed);
  }

  Json Row(const std::string& name) const {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
    Json row = Json::Object();
    row.Set("case", Json::Str(name));
    row.Set("digest", Json::Str(hex));
    row.Set("delivered_bytes", Json::Uint(delivered));
    row.Set("events", Json::Uint(events));
    return row;
  }
};

// Bulk transfers left[i] -> right[i] plus, on the last two host pairs, 150 B
// RPCs over two sessions each; the first two bulk senders share receiver 0,
// so its ToR downlink queues (and marks, with ECN on).
OutcomeDigest ClosOutcome(bool dctcp) {
  SimWorld world;
  ClosOptions opt;
  opt.hosts_per_tor = 4;
  opt.lb = LbPolicy::kPerPacket;
  opt.ecn = dctcp;
  opt.host_template.tcp.dctcp = dctcp;
  opt.host_template.rx.int_coalesce = Us(20);
  opt.host_template.gro_factory = MakeJugglerFactory();
  ClosTestbed t = BuildClos(&world, opt);

  std::vector<EndpointPair> bulk = {
      ConnectHosts(t.left_hosts[0], t.right_hosts[0], 1000, 2000),
      ConnectHosts(t.left_hosts[1], t.right_hosts[0], 1001, 2000),
      ConnectHosts(t.left_hosts[2], t.right_hosts[1], 1002, 2000),
  };
  for (const EndpointPair& pair : bulk) {
    pair.a_to_b->Send(3'000'000);
  }
  std::vector<EndpointPair> rpc;
  std::vector<std::unique_ptr<MessageStream>> streams;
  std::vector<std::unique_ptr<OpenLoopRpcGenerator>> generators;
  for (size_t h = 2; h < 4; ++h) {
    std::vector<MessageStream*> sessions;
    for (uint16_t c = 0; c < 2; ++c) {
      rpc.push_back(ConnectHosts(t.left_hosts[h], t.right_hosts[h],
                                 static_cast<uint16_t>(3000 + c), 4000));
      streams.push_back(std::make_unique<MessageStream>(&world.loop, rpc.back().a_to_b,
                                                        rpc.back().b_to_a, nullptr));
      sessions.push_back(streams.back().get());
    }
    RpcGeneratorConfig gcfg;
    gcfg.message_bytes = 150;
    gcfg.messages_per_sec = 100'000;
    gcfg.seed = 10 + h;
    gcfg.stop_time = Ms(4);
    generators.push_back(std::make_unique<OpenLoopRpcGenerator>(&world.loop, gcfg, sessions));
    generators.back()->Start();
  }
  world.loop.RunUntil(Ms(6));

  OutcomeDigest d;
  for (const auto* flows : {&bulk, &rpc}) {
    for (const EndpointPair& pair : *flows) {
      d.MixFlow(pair);
    }
  }
  d.MixLinks(t.fabric);
  for (Host* h : t.right_hosts) {
    d.MixReceiver(h);
  }
  for (const auto* flows : {&bulk, &rpc}) {
    for (const EndpointPair& pair : *flows) {
      d.MixSender(pair.a_to_b);
    }
  }
  d.MixEvents(world.loop.executed_events());
  return d;
}

// One bulk transfer per host pair on the per-rack partition.
OutcomeDigest ShardedClosOutcome(size_t workers) {
  CpuCostModel costs;
  ShardedEngine engine(workers);
  ClosOptions opt;
  opt.hosts_per_tor = 4;
  opt.host_template.rx.int_coalesce = Us(20);
  opt.host_template.gro_factory = MakeJugglerFactory();
  ShardedClosTestbed t = BuildShardedClos(&engine, &costs, opt);
  std::vector<EndpointPair> pairs;
  for (size_t i = 0; i < t.left_hosts.size(); ++i) {
    pairs.push_back(ConnectHosts(t.left_hosts[i], t.right_hosts[i], 1000, 2000));
    pairs.back().a_to_b->Send(1'500'000);
  }
  for (TimeNs now = Ms(1); now <= Ms(5); now += Ms(1)) {
    engine.Run(now);
  }

  OutcomeDigest d;
  for (const EndpointPair& pair : pairs) {
    d.MixFlow(pair);
  }
  d.MixLinks(t.fabric);
  for (Host* h : t.right_hosts) {
    d.MixReceiver(h);
  }
  for (const EndpointPair& pair : pairs) {
    d.MixSender(pair.a_to_b);
  }
  uint64_t events = 0;
  for (size_t i = 0; i < engine.domain_count(); ++i) {
    events += engine.domain(i)->executed_events();
  }
  d.MixEvents(events);
  return d;
}

// The guaranteed flow (sender1 -> receiver1) runs a PriorityController
// against three antagonists on sender2 -> receiver2; the controller's final
// p joins the digest.
OutcomeDigest DumbbellOutcome() {
  SimWorld world;
  HostConfig host;
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(13);
  jcfg.ofo_timeout = Ms(1);
  host.gro_factory = MakeJugglerFactory(jcfg);
  DumbbellTestbed t = BuildDumbbell(&world, host);

  std::vector<EndpointPair> flows = {ConnectHosts(t.sender1, t.receiver1, 1000, 2000)};
  for (uint16_t i = 0; i < 3; ++i) {
    flows.push_back(ConnectHosts(t.sender2, t.receiver2, static_cast<uint16_t>(3000 + i),
                                 static_cast<uint16_t>(4000 + i)));
  }
  for (const EndpointPair& pair : flows) {
    pair.a_to_b->SendForever();
  }
  PriorityControllerConfig pcfg;
  pcfg.target_rate_bps = 20 * kGbps;
  pcfg.line_rate_bps = 40 * kGbps;
  PriorityController controller(&world.loop, pcfg, flows[0].a_to_b);
  controller.Start();
  world.loop.RunUntil(Ms(10));

  OutcomeDigest d;
  for (const EndpointPair& pair : flows) {
    d.MixFlow(pair);
  }
  d.MixLinks(t.fabric);
  d.MixReceiver(t.receiver1);
  d.MixReceiver(t.receiver2);
  for (const EndpointPair& pair : flows) {
    d.MixSender(pair.a_to_b);
  }
  d.Mix(std::bit_cast<uint64_t>(controller.p()));
  d.MixEvents(world.loop.executed_events());
  return d;
}

TEST(TopologyGoldenTest, ShardedClosDigestIsWorkerCountInvariant) {
  const OutcomeDigest one = ShardedClosOutcome(1);
  const OutcomeDigest two = ShardedClosOutcome(2);
  EXPECT_EQ(one.h, two.h);
  EXPECT_EQ(one.events, two.events);
  EXPECT_EQ(one.delivered, two.delivered);
}

TEST(TopologyGoldenTest, OutcomesMatchGolden) {
  Json rows = Json::Array();
  rows.Push(ClosOutcome(/*dctcp=*/false).Row("clos/per-packet/bulk+rpc"));
  rows.Push(ClosOutcome(/*dctcp=*/true).Row("clos/per-packet/bulk+rpc/ecn+dctcp"));
  rows.Push(ShardedClosOutcome(1).Row("clos/sharded/bulk"));
  rows.Push(DumbbellOutcome().Row("dumbbell/priority-controller"));
  const std::string current = rows.Dump(1) + "\n";
  const std::string golden_path = std::string(JUGGLER_TEST_GOLDEN_DIR) + "/topology_digests.json";

  if (std::getenv("JUGGLER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << current;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with JUGGLER_REGEN_GOLDEN=1)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), current)
      << "topology outcomes changed; if intentional, regenerate with\n"
         "  JUGGLER_REGEN_GOLDEN=1 ./scenario_test "
         "--gtest_filter='TopologyGoldenTest.OutcomesMatchGolden'";
}

}  // namespace
}  // namespace juggler
