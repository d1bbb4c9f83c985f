// The benchmark's workloads. Each runs as one back-to-back batch of complete
// simulated scenarios in this process, built only through the simulator's
// public entry points (topology builders, ConnectHosts, EventLoop::RunUntil,
// ShardedEngine::Run, RunChaos / RunChaosEngineStack, public stats accessors).
// All traffic is simulated in-process.

#ifndef JUGGLER_PERFBENCH_WORKLOADS_H_
#define JUGGLER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  // false: the end-to-end metrics. true: a traced run giving the per-layer
  // metrics (its end-to-end numbers are not reported).
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans; may be empty
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> log;  // human-readable lines printed before the result
};

const std::vector<std::string>& WorkloadNames();

// False when `workload` is not one of WorkloadNames().
bool RunWorkload(const std::string& workload, const RunOptions& options, RunReport* report);

}  // namespace perfbench

#endif  // JUGGLER_PERFBENCH_WORKLOADS_H_
