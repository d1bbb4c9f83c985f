// Figure 16: active-list length under realistic (Clos) reordering.
//
// Setup: 256 flows from the 8 left-ToR hosts into one receiver RX queue at
// 20Gb/s total, with ~20Gb/s of background traffic on the same uplinks and
// per-packet load balancing; reordering comes from real queueing-delay
// variation, not an injected delay. Two variants: 40Gb/s receiver port and
// 10Gb/s receiver port (the latter congests and induces losses, exercising
// the loss-recovery list).
//
// Expected shape: the active list is almost always tiny (mean < 1, 99th
// percentile < 5-6) because a flow is only active while a TSO burst is in
// flight; the loss-recovery list is almost always empty.

#include <memory>

#include "bench/bench_common.h"
#include "src/core/juggler.h"

namespace juggler {
namespace {

void RunVariant(int64_t receiver_rate_bps) {
  SimWorld world;
  ClosOptions opt;
  opt.hosts_per_tor = 8;
  opt.lb = LbPolicy::kPerPacket;
  opt.host_link_rate_bps = receiver_rate_bps;
  // Shallow ToR port buffers (~40us at 40G) keep the cross-path delay
  // difference in the "10s of microseconds" regime the paper reports for
  // real-world queueing-induced reordering.
  opt.switch_buffer_bytes = 200'000;
  opt.host_template = DefaultHost();
  opt.host_template.rx.num_queues = 1;
  opt.host_template.rx.force_queue = 0;
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(15);
  jcfg.ofo_timeout = Us(50);
  jcfg.max_flows = 4096;  // measuring demand, not enforcing the cap
  opt.host_template.gro_factory = MakeJugglerFactory(jcfg);
  ClosTestbed t = BuildClos(&world, opt);

  // 256 measured flows: 8 senders x 32 connections -> right_hosts[0], paced
  // per connection to an aggregate near the receiver's port rate. Pacing
  // gates whole TSO bursts, so the traffic stays bursty (the source of the
  // queueing-delay variation that reorders sprayed packets).
  const int64_t offered = receiver_rate_bps >= 20 * kGbps ? 20 * kGbps : receiver_rate_bps;
  std::vector<EndpointPair> flows;
  Rng stagger(opt.seed * 31 + 7);
  for (size_t h = 0; h < 8; ++h) {
    for (uint16_t c = 0; c < 32; ++c) {
      flows.push_back(
          ConnectHosts(t.left_hosts[h], t.right_hosts[0], static_cast<uint16_t>(1000 + c), 2000));
      TcpEndpoint* sender = flows.back().a_to_b;
      sender->set_pacing_rate(offered / 256);
      // Stagger connection starts over 20ms: synchronized slow-starts of 256
      // flows would mass-drop and wedge a cohort in RTO backoff.
      world.loop.Schedule(stagger.NextInRange(0, Ms(20)), [sender] { sender->SendForever(); });
    }
  }
  // Background: bursty bulk flows to the other right hosts, bringing the two
  // 40G uplinks to ~50% total load.
  std::vector<EndpointPair> background;
  for (size_t h = 0; h < 8; ++h) {
    background.push_back(ConnectHosts(t.left_hosts[h], t.right_hosts[1 + (h % 7)],
                                      static_cast<uint16_t>(5000 + h), 6000));
    background.back().a_to_b->set_pacing_rate(2'500'000'000);
    background.back().a_to_b->SendForever();
  }

  // Warm up past startup transients, then sample for 200ms.
  auto* gro = static_cast<Juggler*>(t.right_hosts[0]->nic_rx()->gro(0));
  world.loop.RunUntil(Ms(50));
  const JugglerStats warm = gro->juggler_stats();
  const uint64_t warm_ooo = gro->stats().ooo_packets;
  PercentileSampler active_len;
  PercentileSampler loss_len;
  PeriodicTask sampler(&world.loop, Us(100), Ms(250), [gro, &active_len, &loss_len] {
    active_len.Add(static_cast<double>(gro->active_list_len()));
    loss_len.Add(static_cast<double>(gro->loss_list_len()));
  });
  world.loop.RunUntil(Ms(250));

  TablePrinter table({"metric", "value"});
  table.AddRow({"active list mean", TablePrinter::Num(active_len.Mean(), 2)});
  table.AddRow({"active list p99", TablePrinter::Num(active_len.Percentile(99), 1)});
  table.AddRow({"active list max", TablePrinter::Num(active_len.Max(), 0)});
  table.AddRow({"loss-recovery list mean", TablePrinter::Num(loss_len.Mean(), 3)});
  table.AddRow({"loss-recovery list p99", TablePrinter::Num(loss_len.Percentile(99), 1)});
  const double window_sec = ToSec(Ms(200));
  table.AddRow(
      {"loss-recovery entries/sec",
       TablePrinter::Num(static_cast<double>(gro->juggler_stats().loss_recovery_entries -
                                             warm.loss_recovery_entries) /
                             window_sec,
                         1)});
  table.AddRow(
      {"loss-recovery exits/sec",
       TablePrinter::Num(static_cast<double>(gro->juggler_stats().loss_recovery_exits -
                                             warm.loss_recovery_exits) /
                             window_sec,
                         1)});
  table.AddRow({"flows tracked (table size)", std::to_string(gro->flow_table_size())});
  table.AddRow(
      {"ooo packets seen", std::to_string(gro->stats().ooo_packets - warm_ooo)});
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace juggler

int main() {
  using namespace juggler;
  PrintHeader("Figure 16",
              "Active-list length statistics under realistic Clos reordering\n"
              "(256 flows into one RX queue, per-packet load balancing, background\n"
              "traffic on the uplinks). Expected: mean < 1, p99 <= ~5 at 40G and\n"
              "~6 at 10G; loss-recovery list almost always empty.");
  std::printf("-- 40Gb/s receiver port --\n");
  RunVariant(40 * kGbps);
  std::printf("-- 10Gb/s receiver port (congested: induces losses) --\n");
  RunVariant(10 * kGbps);
  return 0;
}
