// ScenarioSpec: one chaos scenario, fully pinned, as a serializable value.
//
// The forensics layer treats "a run" as data: the ChaosOptions of the run —
// topology parameters, NIC and GRO timeouts, the fault and flap timelines,
// the RNG seed, the shard count — plus the few knobs that only the forensics
// pipeline reads, round-tripping through JSON byte-stably. The fuzz
// supervisor samples specs, the executor runs them in watchdogged children,
// the shrinker rewrites their timelines event by event, and a repro bundle
// carries one verbatim.
//
// A spec whose override flags are off behaves exactly like the classic
// (family, seed) chaos recipe; Materialize() freezes the seed-derived
// schedules into explicit form so subsequent edits cannot perturb any other
// random draw.

#ifndef JUGGLER_SRC_FORENSICS_SCENARIO_SPEC_H_
#define JUGGLER_SRC_FORENSICS_SCENARIO_SPEC_H_

#include <cstdint>
#include <string>

#include "src/scenario/chaos_scenario.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace juggler {

struct ScenarioSpec {
  // The run. ToJson() writes every member except `obs` (the executor sets
  // what a run collects) and `per_packet_dispatch` (the test-only reference
  // arm, digest-identical to the batched path); both read back at their
  // defaults. The plant flags, rx_driver and the app and overload blocks
  // are written only when they differ from their defaults, so specs written
  // before those members existed re-serialize byte-identically.
  ChaosOptions chaos;

  // Oracle: additionally run the juggler engine at --shards 1 and
  // --shards 2 and require bit-identical digests (the sharded engine's
  // core determinism contract).
  bool check_shard_divergence = false;
  // Test-only planted defect for validating the forensics pipeline itself:
  // a child that wedges in an infinite loop (exercises the watchdog).
  bool plant_wedge = false;

  // Members this build did not recognize, preserved in document order and
  // re-emitted verbatim by ToJson(): repro bundles written by newer builds
  // keep replaying here without silently dropping their fields.
  Json extra = Json::Object();

  // Freeze the (family, seed)-derived fault and flap schedules into the
  // explicit fields, so the shrinker's edits are self-contained. No-op for
  // already-explicit specs; the run is bit-identical either way.
  void Materialize();

  // Fault windows + flap windows + overload windows currently in force
  // (explicit or derived): the "event count" the shrinker minimizes.
  size_t TimelineEvents() const;

  Json ToJson() const;
  static bool FromJson(const Json& json, ScenarioSpec* out, std::string* error);
};

// How often sampled specs carry each optional axis.
struct SampleLimits {
  // Probability a sampled spec carries an application workload instead of
  // the raw transfer. App draws come from a stream derived from the spec's
  // own seed, so raising or lowering this never shifts the non-app fields
  // of any sampled spec.
  double app_prob = 0.3;
  // Probability a sampled spec carries overload pressure windows. Like the
  // app draws, overload draws come from their own seed-derived stream, so
  // this knob never shifts any other field of a sampled spec.
  double overload_prob = 0.25;
  // Probability a sampled spec runs the COREC receive driver instead of
  // RSS+NAPI. Drawn from its own seed-derived stream (pinned fuzz seeds
  // keep sampling the exact specs they always did).
  double corec_prob = 0.3;
};

// One random spec, every decision drawn from `rng`.
ScenarioSpec SampleScenarioSpec(Rng* rng, const SampleLimits& limits);

}  // namespace juggler

#endif  // JUGGLER_SRC_FORENSICS_SCENARIO_SPEC_H_
