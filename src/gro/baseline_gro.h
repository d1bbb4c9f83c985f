// Baseline GRO engines the paper compares against or discusses:
//
//   StandardGro  — Linux GRO: merges in-sequence packets into a frags[]
//                  segment, flushes on any out-of-order arrival, flushes
//                  everything at poll completion (§3, Figure 2).
//   LinkedListGro— the §3.1 alternative: batch packets regardless of order by
//                  chaining sk_buffs; fixes batching but not ordering and
//                  costs ~50% more CPU per packet on in-order traffic.

#ifndef JUGGLER_SRC_GRO_BASELINE_GRO_H_
#define JUGGLER_SRC_GRO_BASELINE_GRO_H_

#include <vector>

#include "src/cpu/cost_model.h"
#include "src/gro/flow_table.h"
#include "src/gro/gro_engine.h"
#include "src/gro/segment_builder.h"

namespace juggler {

class StandardGro : public GroEngine {
 public:
  explicit StandardGro(const CpuCostModel* costs) : costs_(costs) {}

  TimeNs Receive(PacketPtr packet) override;
  TimeNs PollComplete() override;
  std::string name() const override { return "standard_gro"; }

 private:
  const CpuCostModel* costs_;
  FlowTable<SegmentBuilder> held_;
};

class LinkedListGro : public GroEngine {
 public:
  explicit LinkedListGro(const CpuCostModel* costs) : costs_(costs) {}

  TimeNs Receive(PacketPtr packet) override;
  TimeNs PollComplete() override;
  std::string name() const override { return "linkedlist_gro"; }

 private:
  struct Chain {
    // Chained runs in arrival order; non-contiguous runs coexist (Figure 3,
    // right). Delivered as-is at flush: ordering is TCP's problem.
    std::vector<SegmentBuilder> runs;
    uint32_t total_payload = 0;
  };

  TimeNs FlushChain(Chain* chain, FlushReason reason);

  const CpuCostModel* costs_;
  FlowTable<Chain> chains_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_GRO_BASELINE_GRO_H_
