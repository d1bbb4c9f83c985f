// Uplink selection policies (§2.2, §5.3.2).
//
//   kEcmp      — hash the five-tuple: every packet of a flow takes one path.
//   kPerTso    — hash the five-tuple and the TSO burst id: Presto-style
//                flowcells, one path per 64KB chunk.
//   kPerPacket — spray each packet to a uniformly random uplink, the finest
//                (and most reordering-prone) granularity. Random rather than
//                round-robin: deterministic alternation would keep parallel
//                queues artificially symmetric and hide the transient
//                imbalance that causes real reordering.

#ifndef JUGGLER_SRC_NET_LOAD_BALANCER_H_
#define JUGGLER_SRC_NET_LOAD_BALANCER_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "src/packet/packet.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace juggler {

enum class LbPolicy {
  kEcmp,
  kPerTso,
  kPerPacket,
  // CONGA-style flowlet switching (§2.2): a flow re-hashes to a new path
  // whenever the gap since its previous packet exceeds the flowlet gap —
  // bursts stay together, so almost no reordering reaches the end host.
  kFlowlet,
};

const char* LbPolicyName(LbPolicy policy);

class LoadBalancer {
 public:
  LoadBalancer(LbPolicy policy, size_t num_paths, uint64_t seed = 1)
      : policy_(policy), num_paths_(num_paths), rng_(seed) {}

  size_t PickPath(const Packet& p);

  // Flowlet-policy entry point with congestion feedback: a new flowlet is
  // steered to the least-loaded path (CONGA's congestion-aware choice);
  // within a flowlet the path is sticky. `queue_bytes[i]` is the current
  // occupancy of path i's output queue.
  size_t PickFlowletPath(const Packet& p, const std::vector<int64_t>& queue_bytes);

  LbPolicy policy() const { return policy_; }

  // Flowlet inactivity gap (kFlowlet only). CONGA uses ~500us; anything
  // larger than the path-delay difference avoids reordering.
  void set_flowlet_gap(TimeNs gap) { flowlet_gap_ = gap; }

 private:
  struct FlowletState {
    TimeNs last_seen = 0;
    size_t path = 0;
  };

  LbPolicy policy_;
  size_t num_paths_;
  Rng rng_;
  TimeNs flowlet_gap_ = Us(500);
  std::unordered_map<FiveTuple, FlowletState, FiveTupleHash> flowlets_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_NET_LOAD_BALANCER_H_
