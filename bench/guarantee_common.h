// Shared setup for the bandwidth-guarantee experiments (Figures 1, 17, 18):
// the two-priority dumbbell with one target flow (sender1 -> receiver1) and
// 7 antagonist flows (sender2 -> receiver2) competing for a 40Gb/s
// interconnect. The target flow's packets are marked high-priority with
// probability p, adapted by the Eq. (1) controller.

#ifndef JUGGLER_BENCH_GUARANTEE_COMMON_H_
#define JUGGLER_BENCH_GUARANTEE_COMMON_H_

#include <memory>
#include <vector>

#include "bench/bench_common.h"

namespace juggler {

struct GuaranteeRig {
  SimWorld world;
  DumbbellTestbed testbed;
  EndpointPair target;
  std::vector<EndpointPair> antagonists;
  std::unique_ptr<PriorityController> controller;
};

inline std::unique_ptr<GuaranteeRig> BuildGuaranteeRig(bool use_juggler, uint64_t seed) {
  auto rig = std::make_unique<GuaranteeRig>();
  HostConfig host = DefaultHost();
  // The paper's hosts spread flows across RX queues and cores; a single
  // flow is still bounded by one core (the ~25Gb/s ceiling of Fig. 18).
  host.rx.num_queues = 8;
  host.num_app_cores = 8;
  if (use_juggler) {
    JugglerConfig jcfg;
    jcfg.inseq_timeout = Us(13);
    // Expected reordering = the low-priority queue depth (~800us at 40G on
    // the deep-buffer interconnect), per the §5.2.1 tuning rule.
    jcfg.ofo_timeout = Ms(1);
    host.gro_factory = MakeJugglerFactory(jcfg);
  }
  rig->testbed = BuildDumbbell(&rig->world, host);
  DumbbellTestbed& t = rig->testbed;
  rig->target = ConnectHosts(t.sender1, t.receiver1, 1000, 2000);
  for (uint16_t i = 0; i < 7; ++i) {
    rig->antagonists.push_back(ConnectHosts(t.sender2, t.receiver2, 3000 + i, 4000 + i));
    rig->antagonists.back().a_to_b->SendForever();
  }
  rig->target.a_to_b->SendForever();
  (void)seed;
  return rig;
}

inline void StartController(GuaranteeRig* rig, int64_t guarantee_bps, uint64_t seed) {
  PriorityControllerConfig pcfg;
  pcfg.alpha = 0.1;
  pcfg.target_rate_bps = guarantee_bps;
  pcfg.line_rate_bps = 40 * kGbps;
  pcfg.seed = seed;
  rig->controller =
      std::make_unique<PriorityController>(&rig->world.loop, pcfg, rig->target.a_to_b);
  rig->controller->Start();
}

}  // namespace juggler

#endif  // JUGGLER_BENCH_GUARANTEE_COMMON_H_
