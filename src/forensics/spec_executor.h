// Watchdogged execution + outcome classification for one ScenarioSpec.
//
// ExecuteSpec is the supervisor's unit of work: fork, run the spec's chaos
// scenario (differentially, with full invariant checking) in the child,
// stream a structured report back over a pipe, and classify whatever came
// back — or didn't — into a FailureSignature. The child is never trusted:
// it may report violations (the good case), throw, abort on a JUG_CHECK,
// trip a sanitizer, or wedge a barrier and hang until the watchdog SIGKILLs
// it. Classification precedence runs from least to most cooperative
// evidence: watchdog timeout, death by signal, nonzero exit, unparseable
// report, then the report's own contents (exception, digest divergence,
// invariant violations).

#ifndef JUGGLER_SRC_FORENSICS_SPEC_EXECUTOR_H_
#define JUGGLER_SRC_FORENSICS_SPEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "src/forensics/failure_signature.h"
#include "src/forensics/scenario_spec.h"
#include "src/util/subprocess.h"

namespace juggler {

// What one in-process run of a spec observed; the child serializes this to
// the report pipe. Kept deliberately small — raw evidence, not verdicts.
struct SpecRunReport {
  bool ok = false;             // RunChaos's overall verdict
  bool completed = false;      // both engines delivered every byte
  bool streams_match = false;
  uint64_t violations = 0;     // both engines' violation count
  std::vector<std::string> violation_messages;
  uint64_t digest = 0;          // juggler engine digest (primary run)
  uint64_t digest_shard1 = 0;   // divergence oracle, when enabled
  uint64_t digest_shard2 = 0;
  bool diverged = false;
  std::string exception;        // what() of an escaped std::exception
  // Sharded-engine mailbox pressure, routed through the metrics registry so
  // repro bundles carry it (zero when the spec ran as one domain).
  uint64_t mailbox_hwm = 0;
  uint64_t mailbox_overflows = 0;
  // Application-workload evidence (all zero when the spec runs the classic
  // raw transfer): how hard the retry/dedup machinery actually worked.
  uint64_t app_issued = 0;
  uint64_t app_retries = 0;
  uint64_t app_timeouts = 0;
  uint64_t app_executions = 0;
  uint64_t app_duplicates_suppressed = 0;

  Json ToJson() const;
  static bool FromJson(const Json& json, SpecRunReport* out, std::string* error);
};

// Runs the spec in THIS process (the child side; also the replay fast
// path). Honors plant_wedge by spinning forever — callers other than the
// forked child must not pass wedged specs.
SpecRunReport RunSpecInProcess(const ScenarioSpec& spec);

// Re-runs the spec's Juggler engine in THIS process with full observability
// on (metrics + flight-recorder trace) and returns {"metrics":..., "trace":...}
// for attachment to a repro bundle. Best-effort: an escaped exception yields
// an object with an "error" member instead. Never call with plant_wedge or
// for crash/timeout signatures — the failure may take this process with it.
Json CollectSpecObs(const ScenarioSpec& spec);

struct ExecOptions {
  int timeout_ms = 30'000;  // wall-clock watchdog per child
};

struct SpecOutcome {
  FailureSignature signature;
  SpecRunReport report;  // valid when the child reported before dying
  ChildResult child;     // raw evidence (signal, stderr, wall clock)
};

SpecOutcome ExecuteSpec(const ScenarioSpec& spec, const ExecOptions& options);

}  // namespace juggler

#endif  // JUGGLER_SRC_FORENSICS_SPEC_EXECUTOR_H_
