// Figure 14: tail RPC latency vs ofo_timeout under packet loss.
//
// Setup: the server sends 10KB RPC messages to the client through the
// NetFPGA switch (tau = 250/500/750us reordering); the client drops 0.1% of
// packets before they enter Juggler. Sweep ofo_timeout and report the 99th
// percentile RPC completion time.
//
// Expected shape: flat while ofo_timeout is small, then growing rapidly once
// ofo_timeout exceeds ~tau - tau0 — a large ofo_timeout delays the moment
// TCP sees the hole from a real loss, postponing fast retransmit.
//
// Also reproduces the §5.2.1 remark: with 0.1% loss, *throughput* only
// collapses when ofo_timeout reaches ~100ms (printed as a second table).

#include "bench/bench_common.h"

namespace juggler {
namespace {

struct Result {
  double p99_ms = 0;
  double median_ms = 0;
  double gbps = 0;
};

Result RunOnce(TimeNs reorder, TimeNs ofo_timeout, bool bulk) {
  SimWorld world;
  NetFpgaOptions opt;
  opt.link_rate_bps = 10 * kGbps;
  opt.reorder_delay = reorder;
  FaultProfile loss;
  loss.drop_prob = 0.001;
  opt.faults = FaultTimeline::Always(loss);
  opt.sender = DefaultHost();
  opt.receiver = DefaultHost();
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(52);
  jcfg.ofo_timeout = ofo_timeout;
  opt.receiver.gro_factory = MakeJugglerFactory(jcfg);
  // Datacenter-style RTO bounds, so one unlucky loss does not back off into
  // hundreds of milliseconds and swamp the open-loop tail.
  opt.sender.tcp.max_rto = Ms(16);
  opt.receiver.tcp.max_rto = Ms(16);
  NetFpgaTestbed t = BuildNetFpga(&world, opt);

  Result r;
  if (bulk) {
    EndpointPair pair = ConnectHosts(t.sender, t.receiver, 1000, 2000);
    pair.a_to_b->SendForever();
    world.loop.RunUntil(Ms(50));
    GoodputMeter goodput(pair.b_to_a);
    goodput.Reset();
    world.loop.RunUntil(Ms(250));
    r.gbps = goodput.Gbps(Ms(200));
    return r;
  }

  // Open-loop 10KB RPCs multiplexed over 8 connections at a moderate
  // aggregate (~0.5Gb/s) so queueing stays mild and per-RPC loss-recovery
  // latency dominates the tail.
  PercentileSampler latency_us;
  std::vector<std::unique_ptr<MessageStream>> streams;
  std::vector<MessageStream*> raw;
  for (uint16_t c = 0; c < 8; ++c) {
    EndpointPair pair =
        ConnectHosts(t.sender, t.receiver, static_cast<uint16_t>(1000 + c), 2000);
    streams.push_back(
        std::make_unique<MessageStream>(&world.loop, pair.a_to_b, pair.b_to_a, &latency_us));
    raw.push_back(streams.back().get());
  }
  RpcGeneratorConfig gcfg;
  gcfg.message_bytes = 10'000;
  gcfg.messages_per_sec = 6'000;
  gcfg.stop_time = Ms(500);
  gcfg.seed = 17;
  OpenLoopRpcGenerator gen(&world.loop, gcfg, raw);
  gen.Start();
  world.loop.RunUntil(Ms(550));
  r.p99_ms = latency_us.Percentile(99) / 1000.0;
  r.median_ms = latency_us.Percentile(50) / 1000.0;
  return r;
}

}  // namespace
}  // namespace juggler

int main() {
  using namespace juggler;
  PrintHeader("Figure 14",
              "99th-percentile 10KB RPC completion time vs ofo_timeout, with 0.1%\n"
              "receiver-side drops and 250/500/750us reordering. Tail should stay\n"
              "flat until ofo_timeout ~ tau - tau0, then grow.");

  const TimeNs reorders[] = {Us(250), Us(500), Us(750)};
  const TimeNs ofos[] = {Us(50),  Us(100), Us(200), Us(400),
                         Us(600), Us(800), Us(1000)};
  TablePrinter table({"ofo_timeout(us)", "p99@250us(ms)", "p99@500us(ms)", "p99@750us(ms)"});
  for (TimeNs ofo : ofos) {
    std::vector<std::string> row{TablePrinter::Num(ToUs(ofo), 0)};
    for (TimeNs reorder : reorders) {
      row.push_back(TablePrinter::Num(RunOnce(reorder, ofo, /*bulk=*/false).p99_ms, 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  PrintHeader("§5.2.1 remark",
              "Bulk throughput at 0.1% loss vs very large ofo_timeout (250us\n"
              "reordering): throughput is far less sensitive than latency and only\n"
              "collapses at ~100ms.");
  TablePrinter tput({"ofo_timeout", "throughput(Gb/s)"});
  const TimeNs big_ofos[] = {Us(200), Ms(1), Ms(10), Ms(50), Ms(100), Ms(200)};
  for (TimeNs ofo : big_ofos) {
    const Result r = RunOnce(Us(250), ofo, /*bulk=*/true);
    const std::string label = ofo >= Ms(1) ? TablePrinter::Num(ToMs(ofo), 0) + "ms"
                                           : TablePrinter::Num(ToUs(ofo), 0) + "us";
    tput.AddRow({label, TablePrinter::Num(r.gbps, 2)});
  }
  tput.Print();
  return 0;
}
