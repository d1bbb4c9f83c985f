// Example: passive bandwidth guarantees by dynamic packet prioritization
// (§2.1, §5.3.1).
//
// One target flow competes with 7 antagonists for a 40Gb/s two-priority
// interconnect. A PriorityController marks the target flow's packets
// high-priority with probability p, adapting p by Eq. (1):
//     p <- p + alpha * (Rt - Rm)
// No rate limiter, no hypervisor shim — the receiver just has to tolerate
// the reordering that mixed-priority queueing creates, which Juggler does.
//
// Run: ./build/examples/bandwidth_guarantee [guarantee_gbps]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/qos/priority_controller.h"
#include "src/scenario/gro_factories.h"
#include "src/scenario/topologies.h"

using namespace juggler;

int main(int argc, char** argv) {
  const long guarantee_gbps = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 20;
  std::printf("Guaranteeing %ldGb/s to one of 8 flows on a 40Gb/s interconnect\n\n",
              guarantee_gbps);

  SimWorld world;
  HostConfig host;
  host.rx.int_coalesce = Us(125);
  host.rx.num_queues = 8;
  host.num_app_cores = 8;
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(13);
  jcfg.ofo_timeout = Us(100);
  host.gro_factory = MakeJugglerFactory(jcfg);
  DumbbellTestbed t = BuildDumbbell(&world, host);

  EndpointPair target = ConnectHosts(t.sender1, t.receiver1, 1000, 2000);
  std::vector<EndpointPair> antagonists;
  for (uint16_t i = 0; i < 7; ++i) {
    antagonists.push_back(ConnectHosts(t.sender2, t.receiver2, 3000 + i, 4000 + i));
    antagonists.back().a_to_b->SendForever();
  }
  target.a_to_b->SendForever();

  // Fair-share phase.
  world.loop.RunUntil(Ms(40));
  const uint64_t fair_bytes = target.b_to_a->bytes_delivered();
  std::printf("fair share (before controller): %.2f Gb/s\n",
              ToGbps(RateBps(static_cast<int64_t>(fair_bytes), Ms(40))));

  // Start the Eq. (1) controller.
  PriorityControllerConfig pcfg;
  pcfg.alpha = 0.1;
  pcfg.target_rate_bps = guarantee_gbps * kGbps;
  pcfg.line_rate_bps = 40 * kGbps;
  PriorityController controller(&world.loop, pcfg, target.a_to_b);
  controller.Start();

  // Report the achieved rate every 20ms.
  uint64_t last = target.b_to_a->bytes_delivered();
  for (int i = 1; i <= 6; ++i) {
    world.loop.RunUntil(Ms(40) + i * Ms(20));
    const uint64_t now_bytes = target.b_to_a->bytes_delivered();
    std::printf("t=%3dms  achieved %.2f Gb/s   p=%.3f\n", i * 20,
                ToGbps(RateBps(static_cast<int64_t>(now_bytes - last), Ms(20))),
                controller.p());
    last = now_bytes;
  }
  std::printf(
      "\nThe controller raises p until the high-priority fraction of the\n"
      "target flow displaces enough antagonist traffic to meet the guarantee.\n");
  return 0;
}
