// Delta-debugging shrinker: minimize a failing ScenarioSpec while
// preserving its FailureSignature.
//
// A raw fuzzer hit is a haystack — multiple fault windows, flap windows,
// megabytes of transfer. The shrinker runs a greedy ddmin-style loop over a
// fixed menu of reductions (drop a fault window, drop a flap window, halve
// a window's duration, halve its fault magnitudes, halve the transfer and
// the time budget), re-executing each candidate in a watchdogged child and
// keeping it iff the classified signature fingerprint still matches the
// target. Candidates that fail *differently* are rejected — the bundle must
// reproduce the failure that was found, not a cousin. Passes repeat until a
// full round accepts nothing or the run budget is spent.

#ifndef JUGGLER_SRC_FORENSICS_SHRINKER_H_
#define JUGGLER_SRC_FORENSICS_SHRINKER_H_

#include "src/forensics/scenario_spec.h"
#include "src/forensics/spec_executor.h"

namespace juggler {

struct ShrinkOptions {
  int timeout_ms = 30'000;  // per candidate child
  int max_runs = 200;       // total candidate executions
};

struct ShrinkResult {
  ScenarioSpec spec;           // minimized, timelines explicit
  FailureSignature signature;  // == the target (verified on every accept)
  int runs = 0;                // candidate executions spent
  int accepted = 0;            // reductions that kept the signature
};

// `failing` must reproduce `target` (the caller just observed it do so).
// Returns the smallest spec the budget found; worst case the materialized
// original.
ShrinkResult ShrinkSpec(const ScenarioSpec& failing, const FailureSignature& target,
                        const ShrinkOptions& options);

}  // namespace juggler

#endif  // JUGGLER_SRC_FORENSICS_SHRINKER_H_
