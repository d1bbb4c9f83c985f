// Convenience GroEngine factories for wiring hosts. "Vanilla" in the benches
// means StandardGro (the unmodified Linux receive path); "Juggler" means the
// paper's engine with the given timeouts and table size.

#ifndef JUGGLER_SRC_SCENARIO_GRO_FACTORIES_H_
#define JUGGLER_SRC_SCENARIO_GRO_FACTORIES_H_

#include <memory>

#include "src/core/juggler.h"
#include "src/gro/baseline_gro.h"
#include "src/gro/presto_gro.h"
#include "src/nic/nic_rx.h"

namespace juggler {

inline RxDriver::GroFactory MakeJugglerFactory(JugglerConfig config = {}) {
  return [config](const CpuCostModel* costs) -> std::unique_ptr<GroEngine> {
    return std::make_unique<Juggler>(costs, config);
  };
}

inline RxDriver::GroFactory MakeStandardGroFactory() {
  return [](const CpuCostModel* costs) -> std::unique_ptr<GroEngine> {
    return std::make_unique<StandardGro>(costs);
  };
}

inline RxDriver::GroFactory MakeLinkedListGroFactory() {
  return [](const CpuCostModel* costs) -> std::unique_ptr<GroEngine> {
    return std::make_unique<LinkedListGro>(costs);
  };
}

inline RxDriver::GroFactory MakePrestoGroFactory(PrestoGroConfig config = {}) {
  return [config](const CpuCostModel* costs) -> std::unique_ptr<GroEngine> {
    return std::make_unique<PrestoGro>(costs, config);
  };
}

}  // namespace juggler

#endif  // JUGGLER_SRC_SCENARIO_GRO_FACTORIES_H_
