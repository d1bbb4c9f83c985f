// Extensions beyond the paper's headline evaluation, built from its §2
// discussion:
//
//  (a) Load-balancing granularity sweep including CONGA-style flowlet
//      switching (§2.2): flow < flowlet < TSO < packet. Flowlets avoid most
//      reordering by construction; per-packet still wins the tail at high
//      load — but only with a reorder-resilient receiver.
//  (b) DCTCP (the datacenter transport the paper's latency arguments assume)
//      vs the default loss-based TCP under per-packet spraying with Juggler:
//      ECN keeps fabric queues shallow, tightening the small-RPC tail.
//  (c) pFabric-style SRPT marking (§2.1): a flow's packets jump to high
//      priority as it nears completion — intra-flow priority flips reorder
//      packets, so the scheme only works on Juggler receivers.

#include <memory>

#include "bench/bench_common.h"
#include "src/qos/srpt_prioritizer.h"

namespace juggler {
namespace {

struct RpcResult {
  double small_p99_us = 0;
  double large_p99_ms = 0;
};

RpcResult RunClosRpc(LbPolicy lb, bool dctcp, double load) {
  SimWorld world;
  ClosOptions opt;
  opt.hosts_per_tor = 8;
  opt.lb = lb;
  opt.host_template = DefaultHost();
  opt.host_template.rx.num_queues = 8;
  opt.host_template.num_app_cores = 8;
  opt.host_template.rx.int_coalesce = Us(20);
  opt.host_template.tcp.initial_rto = Ms(10);
  opt.host_template.tcp.max_rto = Ms(16);
  opt.host_template.tcp.dctcp = dctcp;
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(13);
  jcfg.ofo_timeout = Us(300);
  opt.host_template.gro_factory = MakeJugglerFactory(jcfg);
  opt.ecn = dctcp;  // CE-marking fabric ports (K ~ 100KB at 40G)
  ClosTestbed t = BuildClos(&world, opt);

  const TimeNs horizon = Ms(200);
  PercentileSampler large_lat;
  PercentileSampler small_lat;
  std::vector<std::unique_ptr<MessageStream>> streams;
  std::vector<std::unique_ptr<OpenLoopRpcGenerator>> generators;
  for (size_t h = 0; h < 8; ++h) {
    const bool large = h < 4;
    std::vector<MessageStream*> pair_streams;
    for (uint16_t c = 0; c < 8; ++c) {
      EndpointPair pair = ConnectHosts(t.left_hosts[h], t.right_hosts[h],
                                       static_cast<uint16_t>(1000 + c), 2000);
      streams.push_back(std::make_unique<MessageStream>(&world.loop, pair.a_to_b, pair.b_to_a,
                                                        large ? &large_lat : &small_lat));
      pair_streams.push_back(streams.back().get());
    }
    RpcGeneratorConfig gcfg;
    gcfg.message_bytes = large ? 1'000'000 : 150;
    const double bps = large ? (load * 80e9 - 4e8) / 4 : 100e6;
    gcfg.messages_per_sec = bps / (static_cast<double>(gcfg.message_bytes) * 8.0);
    gcfg.stop_time = horizon;
    gcfg.seed = 1000 + h;
    generators.push_back(std::make_unique<OpenLoopRpcGenerator>(&world.loop, gcfg, pair_streams));
    generators.back()->Start();
  }
  world.loop.RunUntil(horizon + Ms(20));
  return RpcResult{small_lat.Percentile(99), large_lat.Percentile(99) / 1000.0};
}

void GranularitySweep() {
  PrintHeader("Extension (a): load-balancing granularity incl. flowlets",
              "Figure-19 Clos at 75% load, Juggler receivers. Flowlet switching\n"
              "(CONGA-style, 500us gap) sits between per-flow and per-TSO; per-\n"
              "packet spraying still has the best tail.");
  TablePrinter table({"policy", "150B RPC p99(us)", "1MB RPC p99(ms)"});
  for (LbPolicy lb :
       {LbPolicy::kEcmp, LbPolicy::kFlowlet, LbPolicy::kPerTso, LbPolicy::kPerPacket}) {
    const RpcResult r = RunClosRpc(lb, /*dctcp=*/false, 0.75);
    table.AddRow({LbPolicyName(lb), TablePrinter::Num(r.small_p99_us, 0),
                  TablePrinter::Num(r.large_p99_ms, 2)});
  }
  table.Print();
}

// ---- (b) DCTCP on a marked fabric ----

struct SrptRig {
  SimWorld world;
  DumbbellTestbed testbed;
};

void DctcpComparison() {
  PrintHeader("Extension (b): DCTCP under per-packet spraying",
              "Same Clos RPC workload at 75% load; DCTCP senders against ECN-less\n"
              "fabric degenerate to standard behaviour, so this compares transport\n"
              "stacks end to end (fabric RED vs shallow ECN queues is visible in\n"
              "the small-RPC tail).");
  TablePrinter table({"transport", "150B RPC p99(us)", "1MB RPC p99(ms)"});
  const RpcResult base = RunClosRpc(LbPolicy::kPerPacket, false, 0.75);
  const RpcResult dctcp = RunClosRpc(LbPolicy::kPerPacket, true, 0.75);
  table.AddRow({"standard", TablePrinter::Num(base.small_p99_us, 0),
                TablePrinter::Num(base.large_p99_ms, 2)});
  table.AddRow({"dctcp", TablePrinter::Num(dctcp.small_p99_us, 0),
                TablePrinter::Num(dctcp.large_p99_ms, 2)});
  table.Print();
}

// ---- (c) SRPT dynamic prioritization ----

void SrptDemo() {
  PrintHeader("Extension (c): pFabric-style SRPT marking (§2.1)",
              "One bulk antagonist + repeated 1MB transfers whose packets jump to\n"
              "high priority for the last 256KB of each message. The priority flip\n"
              "reorders the flow's own packets, so the gain only materialises on a\n"
              "Juggler receiver.");
  TablePrinter table({"receiver", "srpt", "1MB completion p99(ms)"});
  for (bool use_juggler : {true, false}) {
    for (bool srpt : {false, true}) {
      auto rig = std::make_unique<SrptRig>();
      HostConfig host = DefaultHost();
      host.rx.num_queues = 8;
      host.num_app_cores = 8;
      if (use_juggler) {
        JugglerConfig jcfg;
        jcfg.inseq_timeout = Us(13);
        jcfg.ofo_timeout = Ms(1);
        host.gro_factory = MakeJugglerFactory(jcfg);
      }
      rig->testbed = BuildDumbbell(&rig->world, host);
      DumbbellTestbed& t = rig->testbed;
      // Antagonist fills the low-priority queue.
      EndpointPair antagonist = ConnectHosts(t.sender2, t.receiver2, 3000, 4000);
      antagonist.a_to_b->SendForever();
      // Measured: open-loop 1MB messages with SRPT marking.
      EndpointPair target = ConnectHosts(t.sender1, t.receiver1, 1000, 2000);
      std::unique_ptr<SrptPrioritizer> prioritizer;
      if (srpt) {
        prioritizer = std::make_unique<SrptPrioritizer>(target.a_to_b, 256 * 1024);
      }
      PercentileSampler lat;
      MessageStream stream(&rig->world.loop, target.a_to_b, target.b_to_a, &lat);
      RpcGeneratorConfig gcfg;
      gcfg.message_bytes = 1'000'000;
      gcfg.messages_per_sec = 1500;  // ~12Gb/s offered
      gcfg.stop_time = Ms(200);
      gcfg.seed = 77;
      OpenLoopRpcGenerator gen(&rig->world.loop, gcfg, {&stream});
      gen.Start();
      rig->world.loop.RunUntil(Ms(230));
      table.AddRow({use_juggler ? "juggler" : "vanilla", srpt ? "on" : "off",
                    TablePrinter::Num(lat.Percentile(99) / 1000.0, 2)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace juggler

int main() {
  juggler::GranularitySweep();
  juggler::DctcpComparison();
  juggler::SrptDemo();
  return 0;
}
