// Application workloads over the full chaos stack (ctest label: "app").
//
// The stack matrix {juggler, vanilla, presto} x {rpc, bulk-transfer,
// incast} runs under mixed faults and must end with zero auditor
// violations and zero hung requests — the app layer's graceful-degradation
// contract holds no matter which GRO engine sits underneath. A second
// group pins determinism: the same app spec digests bit-identically across
// reruns and across sharded worker counts.

#include <gtest/gtest.h>

#include <string>

#include "src/scenario/chaos_scenario.h"

namespace juggler {
namespace {

AppWorkloadOptions SmallWorkload(AppWorkloadKind kind) {
  AppWorkloadOptions app;
  app.kind = kind;
  app.sessions = 2;
  app.requests_per_session = 6;
  app.response_bytes = 12'288;
  app.chunk_bytes = 49'152;
  app.transfer_bytes_per_session = 3 * app.chunk_bytes;
  return app;
}

std::string CellName(StackKind stack, AppWorkloadKind kind, uint64_t seed) {
  return std::string(StackKindName(stack)) + "/" + AppWorkloadKindName(kind) + " seed " +
         std::to_string(seed);
}

void ExpectClean(const ChaosEngineResult& r, const std::string& cell) {
  EXPECT_TRUE(r.completed) << cell << ": " << r.app.forced_terminal << " hung of "
                           << r.app.issued << " issued";
  EXPECT_EQ(r.violations, 0u) << cell << ": "
                              << (r.violation_messages.empty() ? ""
                                                               : r.violation_messages.front());
  EXPECT_GT(r.app.issued, 0u) << cell;
  EXPECT_EQ(r.app.forced_terminal, 0u) << cell;
  // Every issued request reached exactly one terminal outcome.
  EXPECT_EQ(r.app.ok + r.app.timeouts + r.app.aborted, r.app.issued) << cell;
}

void RunMatrixForStack(StackKind stack) {
  for (AppWorkloadKind kind :
       {AppWorkloadKind::kRpc, AppWorkloadKind::kBulkTransfer, AppWorkloadKind::kIncast}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      ChaosOptions opt;
      opt.seed = seed;
      opt.family = FaultFamily::kMixed;
      opt.app = SmallWorkload(kind);
      const ChaosEngineResult r = RunChaosEngineStack(opt, stack);
      ExpectClean(r, CellName(stack, kind, seed));
    }
  }
}

TEST(AppChaosTest, JugglerMatrixIsClean) { RunMatrixForStack(StackKind::kJuggler); }

TEST(AppChaosTest, VanillaMatrixIsClean) { RunMatrixForStack(StackKind::kVanilla); }

TEST(AppChaosTest, PrestoMatrixIsClean) { RunMatrixForStack(StackKind::kPresto); }

TEST(AppChaosTest, ReplicationCommitBarrierSurvivesChaos) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ChaosOptions opt;
    opt.seed = seed;
    opt.family = FaultFamily::kMixed;
    opt.app = SmallWorkload(AppWorkloadKind::kReplication);
    opt.app.sessions = 3;
    const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
    ExpectClean(r, CellName(StackKind::kJuggler, AppWorkloadKind::kReplication, seed));
  }
}

TEST(AppChaosTest, RunChaosDifferentialOkForAppWorkloads) {
  ChaosOptions opt;
  opt.seed = 4;
  opt.family = FaultFamily::kDropBurst;
  opt.app = SmallWorkload(AppWorkloadKind::kRpc);
  const ChaosResult r = RunChaos(opt);
  EXPECT_TRUE(r.ok) << "juggler: "
                    << (r.juggler.violation_messages.empty()
                            ? "ok"
                            : r.juggler.violation_messages.front())
                    << "; baseline: "
                    << (r.baseline.violation_messages.empty()
                            ? "ok"
                            : r.baseline.violation_messages.front());
  EXPECT_TRUE(r.streams_match);  // vacuously true for app runs, by contract
}

// Fault pressure must actually reach the retry machinery: link flaps
// blackhole the response path for up to 12ms — longer than the attempt
// timeout — so attempts time out and retry, and the server-side dedup path
// answers the duplicates. Otherwise the matrix proves nothing about
// resilience. (Drop bursts don't qualify: TCP's fast retransmit recovers
// them well inside any sane attempt timeout.)
TEST(AppChaosTest, FaultsExerciseRetriesAndDedup) {
  uint64_t retries = 0;
  uint64_t dedup = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ChaosOptions opt;
    opt.seed = seed;
    opt.family = FaultFamily::kLinkFlap;
    opt.app = SmallWorkload(AppWorkloadKind::kRpc);
    opt.app.retry.attempt_timeout = Ms(2);
    const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
    ExpectClean(r, CellName(StackKind::kJuggler, AppWorkloadKind::kRpc, seed));
    retries += r.app.retries;
    dedup += r.app.duplicates_suppressed;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(dedup, 0u);
}

TEST(AppChaosTest, SameSeedSameDigest) {
  for (AppWorkloadKind kind : {AppWorkloadKind::kRpc, AppWorkloadKind::kBulkTransfer}) {
    ChaosOptions opt;
    opt.seed = 17;
    opt.family = FaultFamily::kMixed;
    opt.app = SmallWorkload(kind);
    const ChaosEngineResult a = RunChaosEngineStack(opt, StackKind::kJuggler);
    const ChaosEngineResult b = RunChaosEngineStack(opt, StackKind::kJuggler);
    EXPECT_EQ(a.digest, b.digest) << AppWorkloadKindName(kind);
  }
}

// The sharded determinism contract extends to app workloads: worker count
// must not leak into the digest (client and server sides run in different
// shard domains, so this exercises the auditor's commuting updates and the
// frame ledger's cross-thread handoff).
TEST(AppChaosTest, DigestInvariantAcrossShardCounts) {
  for (AppWorkloadKind kind :
       {AppWorkloadKind::kRpc, AppWorkloadKind::kBulkTransfer, AppWorkloadKind::kIncast}) {
    ChaosOptions opt;
    opt.seed = 23;
    opt.family = FaultFamily::kMixed;
    opt.app = SmallWorkload(kind);
    opt.shards = 1;
    const ChaosEngineResult one = RunChaosEngineStack(opt, StackKind::kJuggler);
    opt.shards = 2;
    const ChaosEngineResult two = RunChaosEngineStack(opt, StackKind::kJuggler);
    EXPECT_EQ(one.digest, two.digest) << AppWorkloadKindName(kind);
    ExpectClean(one, CellName(StackKind::kJuggler, kind, 23));
    ExpectClean(two, CellName(StackKind::kJuggler, kind, 23));
  }
}

// App counters surface through the metrics registry, including the
// per-connection TCP snapshots the satellite PublishStats added.
TEST(AppChaosTest, MetricsCarryAppAndPerConnectionTcpCounters) {
  ChaosOptions opt;
  opt.seed = 2;
  opt.family = FaultFamily::kMixed;
  opt.app = SmallWorkload(AppWorkloadKind::kRpc);
  opt.obs.metrics = true;
  const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
  EXPECT_EQ(r.violations, 0u);
  const MetricsRegistry& m = r.obs.metrics;
  EXPECT_EQ(m.CounterValue("app.issued", "client"), r.app.issued);
  EXPECT_EQ(m.CounterValue("app.executions", "server"),
            r.app.executions);
  // One TCP snapshot per connection, under the conn<N> labels.
  EXPECT_GT(m.CounterValue("tcp.bytes_sent", "conn0/a_to_b") +
                m.CounterValue("tcp.bytes_sent", "conn0/b_to_a"),
            0u);
  EXPECT_GT(m.CounterValue("tcp.bytes_sent", "conn1/a_to_b") +
                m.CounterValue("tcp.bytes_sent", "conn1/b_to_a"),
            0u);
}

}  // namespace
}  // namespace juggler
