// Randomized fault soak: Juggler vs the baseline stack, differentially.
//
// A ChaosScenario composes a seeded random fault timeline from one of five
// fault families (drop bursts, duplication, corruption, delay spikes, link
// flaps — or a mix), runs the same bulk transfer through the NetFPGA
// topology twice — once with Juggler (wrapped in the invariant auditor) and
// once with standard GRO — and checks that
//
//   * both runs complete the transfer with zero invariant violations
//     (StreamIntegrityChecker + JugglerAuditor feed a shared AuditLog), and
//   * both engines hand TCP the identical application byte stream: same
//     final total, contiguous, exactly once. Whatever the wire did, the two
//     stacks must agree on the bytes.
//
// Every random decision descends from ChaosOptions::seed, so a failing
// (family, seed) pair is a complete reproduction recipe; the per-run digest
// makes "same seed => bit-identical run" checkable.

#ifndef JUGGLER_SRC_SCENARIO_CHAOS_SCENARIO_H_
#define JUGGLER_SRC_SCENARIO_CHAOS_SCENARIO_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/fault/audit_log.h"
#include "src/fault/fault_stage.h"
#include "src/fault/link_flapper.h"
#include "src/fault/overload.h"
#include "src/net/link.h"
#include "src/nic/rx_driver.h"
#include "src/obs/obs.h"
#include "src/util/time.h"
#include "src/workload/app_resilience.h"

namespace juggler {

enum class FaultFamily : int {
  kDropBurst = 0,
  kDuplicate,
  kCorrupt,
  kDelaySpike,
  kLinkFlap,
  kMixed,
};
constexpr int kNumFaultFamilies = 5;  // kMixed is a combination, not a family

const char* FaultFamilyName(FaultFamily family);

// Inverse of FaultFamilyName (accepts "mixed" too). False on unknown names.
bool ParseFaultFamily(const char* name, FaultFamily* out);

// Which receive stack a chaos run puts under test. kJuggler and kVanilla
// are the pair RunChaos compares differentially; kPresto (the linked-list
// Presto-paper GRO variant) is reachable through RunChaosEngineStack for
// stack-matrix soaks.
enum class StackKind : int {
  kJuggler = 0,
  kVanilla,
  kPresto,
};

const char* StackKindName(StackKind stack);
bool ParseStackKind(const char* name, StackKind* out);

struct ChaosOptions {
  uint64_t seed = 1;
  FaultFamily family = FaultFamily::kMixed;
  uint64_t transfer_bytes = 1'500'000;
  // Wall-clock budget per engine run. Fault windows occupy the first half;
  // the second half is clean so TCP can always recover and finish.
  TimeNs time_limit = Ms(800);
  TimeNs reorder_delay = Us(250);
  int num_windows = 3;
  // How the run is partitioned and parallelized; every run executes on the
  // ShardedEngine. 0 = the whole testbed in one domain (bit-for-bit the
  // historical single-loop run). N >= 1 = one domain per host (the switch's
  // stages ride with the receiver), run by up to N worker threads; every
  // N >= 1 produces byte-identical digests, since the worker count only
  // changes which thread runs which domain. Stream digests match shards=0;
  // run digests can differ from it by same-timestamp tie order.
  size_t shards = 0;
  // Per-(src,dst) shard-mailbox capacity; 0 = ShardMailbox default fuse.
  size_t shard_mailbox_capacity = 0;
  // Dispatch each NIC poll round to GRO packet-by-packet instead of as one
  // batch (NicRxConfig::per_packet_dispatch, both hosts). Digests must be
  // bit-identical either way — determinism regression tests flip this to
  // pin the batched fold path to per-packet semantics.
  bool per_packet_dispatch = false;
  // Receive-path architecture, both hosts (NicRxConfig::driver). The run
  // digest is per-driver (poll/flush timing legitimately differs), but the
  // TCP-level stream digest must be byte-identical across drivers for every
  // stack — the rx_conformance matrix pins that.
  RxDriverKind rx_driver = RxDriverKind::kRss;
  // COREC fault plant (forensics tests only): wedge the receiver's in-order
  // hand-off stage at its first out-of-order stall, so claimed packets never
  // reach GRO again and the stream integrity oracle fires
  // (NicRxConfig::debug_corec_wedge). Meaningless under rx_driver == kRss,
  // so the shrinker's SimplifyRxDriver pass keeps the corec axis in a
  // minimal repro.
  bool plant_corec_wedge = false;

  // ---- Forensics knobs. Every default reproduces the historical run
  // ---- bit-for-bit; the fuzzer samples these, and a repro bundle pins them.
  int64_t link_rate_bps = 10 * kGbps;
  TimeNs base_delay = Us(5);        // lane-0 fabric latency
  TimeNs int_coalesce = Us(125);    // NIC interrupt coalescing, both hosts
  TimeNs inseq_timeout = Us(52);    // Juggler Table-2 row 5
  TimeNs ofo_timeout = Us(300);     // Juggler Table-2 row 6
  size_t max_flows = 64;            // gro_table hard cap

  // When set, the explicit timelines replace the family-derived random
  // schedules entirely — the shrinker edits these without re-deriving
  // anything from the seed, which is what makes a minimized bundle stable.
  bool use_explicit_faults = false;
  FaultTimeline fault_override;
  bool use_explicit_flaps = false;
  std::vector<FlapWindow> flap_override;

  // Enables the planted conservation-law defect in the Juggler config (see
  // JugglerConfig::debug_flush_accounting_skew). Forensics tests only.
  bool plant_flush_skew = false;

  // Overload pressure riding the run: timed incast / churn / brown-out
  // windows plus hard capacity caps on every packet pool (and optionally the
  // receiver ring). Empty windows = overload machinery fully off — caps
  // unset, no driver, no auditor, and the digest's overload counters zero.
  struct OverloadOptions {
    std::vector<OverloadWindow> windows;
    // Hard cap applied to every packet pool for the run (0 = uncapped).
    size_t pool_capacity = 8192;
    // Receiver NIC ring cap for the run (0 = keep NicRxConfig's default).
    size_t ring_capacity = 0;
    bool enabled() const { return !windows.empty(); }
  };
  OverloadOptions overload;

  // Application workload riding the testbed. kNone (the default) keeps the
  // classic raw bulk transfer; any other kind replaces it with the
  // app_resilience traffic mix (AppHarness), whose auditor and hung-request
  // check become the run's completion oracle.
  AppWorkloadOptions app;

  // Observability: what this run collects (metrics snapshot, flight-recorder
  // trace). Off by default — the datapath then carries only the untaken
  // null-recorder branches.
  ObsConfig obs;
};

struct ChaosEngineResult {
  std::string engine;
  bool completed = false;
  uint64_t bytes_delivered = 0;
  TimeNs finish_time = 0;
  uint64_t violations = 0;
  std::vector<std::string> violation_messages;
  FaultStats faults;            // zeroes for the link-flap family
  uint64_t flaps = 0;           // link-flap family only
  uint64_t checksum_drops = 0;  // corrupted frames the NIC discarded
  uint64_t audits = 0;          // structural audits performed (Juggler only)
  // Application counters (client + server merged); all zero for raw runs.
  // They join the digest for every run; for app runs `completed` means
  // "zero hung requests" instead of "all bytes delivered".
  AppStats app;
  // Overload-run observables, all zero when ChaosOptions::overload is off.
  // They join the digest for every run and must be shard-count invariant.
  OverloadStats overload;            // driver counters
  uint64_t overload_probes = 0;      // auditor probes taken
  uint64_t overload_peak_pool = 0;   // peak pool occupancy delta observed
  uint64_t overload_pool_exhausted = 0;  // refused allocations (all pools)
  uint64_t overload_ring_drops = 0;      // receiver ring tail drops
  // Packets still outstanding after full teardown. Zero is the no-leak
  // proof.
  uint64_t overload_pool_leaked = 0;
  // FNV-1a over the run's observable counters: same seed + options must
  // reproduce this bit-identically.
  uint64_t digest = 0;
  // TCP-level stream digest (raw transfers only; 0 for app runs): the
  // receiver's StreamIntegrityChecker::stream_digest(), which identifies the
  // in-order stream TCP handed the application by its delivered total and
  // the delivery anomalies the checker observed. Unlike `digest` it is
  // independent of poll boundaries, flush timing and chunking, so it must be
  // equal across receive drivers (RSS vs COREC) for the same
  // (seed, options) — that equality is the rx-conformance oracle.
  uint64_t stream_digest = 0;
  // Sharded-engine execution detail. Deliberately outside the digest:
  // windows and crossings are shard-count invariant anyway, workers and
  // barrier waits are not meant to be.
  size_t shard_workers = 0;
  uint64_t shard_windows = 0;
  uint64_t shard_crossings = 0;
  std::vector<std::string> shard_names;           // one per domain
  std::vector<uint64_t> shard_events;             // executed events per domain
  std::vector<uint64_t> shard_barrier_wait_ns;    // per worker
  size_t shard_mailbox_hwm = 0;                   // deepest per-pair buffer
  uint64_t shard_mailbox_overflows = 0;           // envelopes shed at the fuse
  // What ObsConfig asked for. Everything here is shard-count invariant
  // (worker-dependent stats are deliberately excluded) and stays OUT of the
  // digest — observability must never perturb reproducibility checks.
  ObsReport obs;
};

struct ChaosResult {
  ChaosEngineResult juggler;
  ChaosEngineResult baseline;
  // Both engines delivered the identical byte stream. Raw runs only: app
  // workloads legitimately put different byte totals on the wire per engine
  // (retry traffic is timing dependent), so for them this is vacuously true
  // and the per-engine auditor + hung-request oracles carry the comparison.
  bool streams_match = false;
  bool ok = false;  // completed + zero violations + streams_match
};

// Overload satellite check: links with no queue bound while overload faults
// are active would hide queue-growth pathologies inside an infinitely
// elastic buffer — each one is flagged as a setup bug on `log`.
void CheckLinksBounded(std::initializer_list<const Link*> links, const std::string& engine,
                       AuditLog* log);

// The seeded random fault schedule for `family`: `num_windows` windows
// placed in [horizon/8, horizon/2]. (The link-flap family has no packet
// timeline — RunChaos drives a LinkFlapper instead.)
FaultTimeline MakeChaosTimeline(FaultFamily family, uint64_t seed, TimeNs horizon,
                                int num_windows);

// The exact schedules a (family, seed) chaos run derives internally, in
// explicit form — what RunChaos applies when the override flags are off.
// The forensics shrinker materializes these once, then edits events freely
// without disturbing any other seed-derived randomness.
FaultTimeline DeriveChaosFaults(const ChaosOptions& options);
std::vector<FlapWindow> DeriveChaosFlaps(const ChaosOptions& options);

ChaosResult RunChaos(const ChaosOptions& options);

// One engine's half of RunChaos (kJuggler or kVanilla), or any other stack:
// the bulk transfer (or app workload) under the configured fault schedule,
// with invariant checking, returning the full per-run result (digest
// included). The forensics executor calls this directly so it can run the
// same spec at different shard counts and diff the digests; the
// stack-matrix soaks drive {juggler, vanilla, presto} x workload through it.
ChaosEngineResult RunChaosEngineStack(const ChaosOptions& options, StackKind stack);

// The TraceNamer that decodes chaos-run trace events with the repo's own
// Table-2 flush-reason and §4 phase names (phase 4 decodes to "none").
TraceNamer ChaosTraceNamer();

}  // namespace juggler

#endif  // JUGGLER_SRC_SCENARIO_CHAOS_SCENARIO_H_
