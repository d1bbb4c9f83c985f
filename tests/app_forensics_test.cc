// App-layer forensics, end to end (ctest label: "fuzz").
//
// The acceptance path for the application resilience layer: a known app
// protocol defect — retries minting fresh idempotency tokens instead of
// reusing the request's, so the server's dedup table cannot recognize the
// duplicate — is planted behind a test-only flag. The fuzz supervisor must
// find it as a "duplicate execution" auditor violation, the shrinker must
// reduce the workload, and the written bundle must replay to the identical
// signature, twice. Alongside: the executor's report carries the app
// counters (absent-tolerantly, so pre-app reports still parse).

#include <gtest/gtest.h>

#include <string>

#include "src/forensics/fuzz_supervisor.h"
#include "src/forensics/repro_bundle.h"
#include "src/forensics/spec_executor.h"
#include "src/util/json.h"

namespace juggler {
namespace {

// Pinned empirically: with plant_app_stale_token armed (link-flap pressure,
// 2 ms attempt timeout) the first sampled specs retry and trip the auditor.
constexpr uint64_t kAppPlantSeed = 7;

TEST(AppForensicsTest, ReportCarriesAppCounters) {
  SpecRunReport rep;
  rep.ok = false;
  rep.violations = 1;
  rep.app_issued = 12;
  rep.app_retries = 5;
  rep.app_timeouts = 1;
  rep.app_executions = 11;
  rep.app_duplicates_suppressed = 4;
  SpecRunReport back;
  std::string error;
  ASSERT_TRUE(SpecRunReport::FromJson(rep.ToJson(), &back, &error)) << error;
  EXPECT_EQ(back.app_issued, 12u);
  EXPECT_EQ(back.app_retries, 5u);
  EXPECT_EQ(back.app_timeouts, 1u);
  EXPECT_EQ(back.app_executions, 11u);
  EXPECT_EQ(back.app_duplicates_suppressed, 4u);

  // Pre-app reports carry no app keys; they must still parse, to zeros.
  Json old_report = SpecRunReport().ToJson();
  Json pruned = Json::Object();
  for (const auto& member : old_report.members()) {
    if (member.first.rfind("app_", 0) != 0) {
      pruned.Set(member.first, member.second);
    }
  }
  ASSERT_TRUE(SpecRunReport::FromJson(pruned, &back, &error)) << error;
  EXPECT_EQ(back.app_issued, 0u);
  EXPECT_EQ(back.app_duplicates_suppressed, 0u);
}

TEST(AppForensicsTest, InProcessRunReportsAppEvidence) {
  ScenarioSpec spec;
  spec.chaos.seed = 5;
  spec.chaos.family = FaultFamily::kLinkFlap;
  spec.chaos.app.kind = AppWorkloadKind::kRpc;
  spec.chaos.app.sessions = 2;
  spec.chaos.app.requests_per_session = 6;
  spec.chaos.app.response_bytes = 12'288;
  spec.chaos.app.retry.attempt_timeout = Ms(2);
  const SpecRunReport rep = RunSpecInProcess(spec);
  EXPECT_TRUE(rep.ok) << (rep.violation_messages.empty() ? "not ok"
                                                         : rep.violation_messages.front());
  EXPECT_EQ(rep.app_issued, 2u * 6u);
  EXPECT_GT(rep.app_executions, 0u);
  // Link flaps outlast the 2 ms attempt timeout, so the retry machinery
  // demonstrably worked — and the dedup table absorbed the duplicates.
  EXPECT_GT(rep.app_retries, 0u);
  EXPECT_GT(rep.app_duplicates_suppressed, 0u);
}

TEST(AppForensicsEndToEndTest, FuzzerFindsShrinksAndReplaysStaleTokenBug) {
  const std::string out_dir = testing::TempDir() + "juggler_app_bundles";

  FuzzOptions opt;
  opt.seed = kAppPlantSeed;
  opt.num_specs = 3;
  opt.timeout_ms = 60'000;
  opt.plant_app_stale_token = true;  // arm the app-layer planted defect
  opt.out_dir = out_dir;
  opt.shrink = true;
  opt.shrink_options.max_runs = 40;
  opt.shrink_options.timeout_ms = 60'000;

  const FuzzReport report = RunFuzz(opt);
  ASSERT_GE(report.findings.size(), 1u) << "supervisor failed to find the planted app bug";

  // The stale token makes the server execute one logical request twice.
  const FuzzFinding* found = nullptr;
  for (const FuzzFinding& f : report.findings) {
    if (f.signature.kind == SignatureKind::kInvariantViolation &&
        f.signature.detail.find("duplicate execution") != std::string::npos) {
      found = &f;
      break;
    }
  }
  ASSERT_NE(found, nullptr) << "no duplicate-execution finding among "
                            << report.findings.size() << " findings";

  // The shrunk spec still carries the app workload (the bug lives there),
  // and the shrinker made real progress on it.
  EXPECT_TRUE(found->shrunk.chaos.app.enabled());
  EXPECT_TRUE(found->shrunk.chaos.app.plant_stale_token);
  EXPECT_GT(found->shrink_accepted, 0);
  EXPECT_LE(found->shrunk.chaos.app.sessions * found->shrunk.chaos.app.RequestsPerSession(),
            found->spec.chaos.app.sessions * found->spec.chaos.app.RequestsPerSession());

  // The bundle replays deterministically: identical signature, twice.
  ASSERT_FALSE(found->bundle_path.empty());
  ReproBundle bundle;
  std::string error;
  ASSERT_TRUE(ReadBundleFile(found->bundle_path, &bundle, &error)) << error;
  EXPECT_TRUE(bundle.signature == found->signature);
  for (int i = 0; i < 2; ++i) {
    const ReplayResult replay = ReplayBundle(bundle, /*timeout_ms=*/60'000);
    EXPECT_TRUE(replay.reproduced)
        << "replay " << i << " observed " << SignatureKindName(replay.observed.kind) << ": "
        << replay.observed.detail;
    EXPECT_EQ(replay.observed.fingerprint, bundle.signature.fingerprint);
    // The replayed run's evidence shows the retry machinery at work.
    EXPECT_GT(replay.outcome.report.app_retries, 0u);
  }
}

}  // namespace
}  // namespace juggler
