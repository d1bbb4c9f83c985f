#include "src/net/load_balancer.h"

namespace juggler {

const char* LbPolicyName(LbPolicy policy) {
  switch (policy) {
    case LbPolicy::kEcmp:
      return "per-flow ECMP";
    case LbPolicy::kPerTso:
      return "per-TSO";
    case LbPolicy::kPerPacket:
      return "per-packet";
    case LbPolicy::kFlowlet:
      return "flowlet";
  }
  return "unknown";
}

size_t LoadBalancer::PickPath(const Packet& p) {
  if (num_paths_ <= 1) {
    return 0;
  }
  switch (policy_) {
    case LbPolicy::kEcmp:
      return static_cast<size_t>(p.flow.Hash() % num_paths_);
    case LbPolicy::kPerTso: {
      // Flowcell hash: mix the flow hash with the burst id.
      uint64_t h = p.flow.Hash() ^ (p.tso_id * 0x9e3779b97f4a7c15ULL);
      h ^= h >> 29;
      return static_cast<size_t>(h % num_paths_);
    }
    case LbPolicy::kPerPacket:
      return static_cast<size_t>(rng_.NextBounded(num_paths_));
    case LbPolicy::kFlowlet:
      // Without congestion feedback, new flowlets pick randomly.
      return PickFlowletPath(p, {});
  }
  return 0;
}

size_t LoadBalancer::PickFlowletPath(const Packet& p, const std::vector<int64_t>& queue_bytes) {
  // Uses the packet's send timestamp as the clock: flowlet detection only
  // needs inter-packet gaps, not absolute time.
  FlowletState& state = flowlets_[p.flow];
  if (state.last_seen == 0 || p.sent_time - state.last_seen > flowlet_gap_) {
    if (queue_bytes.size() == num_paths_) {
      // CONGA-style: steer the new flowlet to the least-congested path.
      size_t best = 0;
      for (size_t i = 1; i < queue_bytes.size(); ++i) {
        if (queue_bytes[i] < queue_bytes[best]) {
          best = i;
        }
      }
      state.path = best;
    } else {
      state.path = static_cast<size_t>(rng_.NextBounded(num_paths_));
    }
  }
  state.last_seen = p.sent_time;
  return state.path;
}

}  // namespace juggler
