// The self-driving chaos fuzzer: sample, execute, classify, shrink, bundle.
//
// RunFuzz is the whole loop in one call: draw `num_specs` random
// ScenarioSpecs from a seeded Rng, execute each in a watchdogged child,
// classify the outcome, dedup failures by signature fingerprint, shrink
// each *new* failure with the delta-debugging shrinker, and (optionally)
// write one repro bundle per distinct fingerprint. Everything downstream of
// the seed is deterministic — same seed, same specs, same findings — which
// is what lets a CI smoke test assert "N specs, zero findings" as a stable
// property rather than a coin flip.

#ifndef JUGGLER_SRC_FORENSICS_FUZZ_SUPERVISOR_H_
#define JUGGLER_SRC_FORENSICS_FUZZ_SUPERVISOR_H_

#include <string>
#include <vector>

#include "src/forensics/repro_bundle.h"
#include "src/forensics/scenario_spec.h"
#include "src/forensics/shrinker.h"
#include "src/forensics/spec_executor.h"

namespace juggler {

struct FuzzOptions {
  uint64_t seed = 1;
  int num_specs = 20;
  int timeout_ms = 30'000;   // watchdog per child
  int64_t time_budget_ms = 0;  // stop sampling once exceeded; 0 = none
  bool shrink = true;
  ShrinkOptions shrink_options;
  SampleLimits limits;
  std::string out_dir;  // bundles written here when non-empty
  bool verbose = false;  // per-spec progress on stdout
  // Test-only: force the planted Juggler accounting defect on in every
  // sampled spec, so the forensics pipeline can be validated end to end
  // against a bug with a known identity.
  bool plant_flush_skew = false;
  // Test-only: give every sampled spec an RPC workload whose retries mint
  // stale idempotency tokens (the app-layer planted defect). Specs are
  // steered onto link-flap fault pressure with a short attempt timeout so
  // retries actually fire — drop bursts alone are recovered by TCP fast
  // retransmit before any sane app timeout expires.
  bool plant_app_stale_token = false;
  // Test-only: run every sampled spec on the COREC receive driver with the
  // hand-off wedge plant armed (ChaosOptions::plant_corec_wedge) — a
  // COREC-only stall-to-deadlock defect the pipeline must find, shrink
  // (keeping the corec axis; see Shrinker::SimplifyRxDriver) and replay.
  bool plant_corec_wedge = false;
  // Attach a flight-recorder snapshot (metrics + trace) to each written
  // bundle by re-running the shrunk spec in-process with observability on.
  // Only done for cooperative failure kinds (invariant violation, digest
  // divergence, exception) — a crash/timeout would take the fuzzer with it.
  bool attach_obs = true;
};

struct FuzzFinding {
  int spec_index = 0;           // which sampled spec hit it first
  ScenarioSpec spec;            // the original failing spec
  ScenarioSpec shrunk;          // minimized (== spec when shrinking is off)
  FailureSignature signature;
  int shrink_runs = 0;
  int shrink_accepted = 0;
  std::string bundle_path;      // set when a bundle was written
};

struct FuzzReport {
  int specs_run = 0;
  int failures = 0;  // failing specs before dedup
  std::vector<FuzzFinding> findings;  // one per distinct fingerprint
};

FuzzReport RunFuzz(const FuzzOptions& options);

}  // namespace juggler

#endif  // JUGGLER_SRC_FORENSICS_FUZZ_SUPERVISOR_H_
