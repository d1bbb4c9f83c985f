// Seeded fuzz smoke (ctest -L fuzz): a short supervisor run over randomized
// scenarios with NO planted defects must produce zero findings — the stack
// survives everything the sampler throws at it — and finish well inside the
// 60s budget. A finding here is a real regression: the printed bundle JSON
// is the repro. The shrunk specs of past oracle false positives
// (tests/fuzz_specs/) must stay clean too.

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "src/forensics/fuzz_supervisor.h"
#include "src/forensics/repro_bundle.h"
#include "src/scenario/chaos_scenario.h"

#ifndef JUGGLER_TEST_FUZZ_SPEC_DIR
#define JUGGLER_TEST_FUZZ_SPEC_DIR "tests/fuzz_specs"
#endif

namespace juggler {
namespace {

TEST(FuzzSmokeTest, SeededSweepIsClean) {
  FuzzOptions opt;
  opt.seed = 20260805;
  opt.num_specs = 12;
  opt.timeout_ms = 45'000;
  opt.shrink = false;  // nothing to shrink on a clean tree; keep the smoke fast
  opt.verbose = false;

  const FuzzReport report = RunFuzz(opt);
  EXPECT_EQ(report.specs_run, 12);
  for (const FuzzFinding& f : report.findings) {
    ReproBundle bundle;
    bundle.spec = f.spec;
    bundle.signature = f.signature;
    ADD_FAILURE() << "unexpected " << SignatureKindName(f.signature.kind) << ": "
                  << f.signature.detail << "\nrepro bundle:\n"
                  << bundle.ToJson().Dump(2);
  }
  EXPECT_EQ(report.failures, 0);
}

// Same contract with the application layer riding every spec: app_prob 1.0
// forces an RPC / bulk-transfer / incast / replication workload (drawn from
// each spec's seed) onto every sampled scenario. Zero findings means the
// retry/deadline/backoff state machines degrade gracefully — no hung
// requests, no auditor violations — under everything the sampler throws.
TEST(FuzzSmokeTest, SeededAppWorkloadSweepIsClean) {
  FuzzOptions opt;
  opt.seed = 20260808;
  opt.num_specs = 8;
  opt.timeout_ms = 45'000;
  opt.limits.app_prob = 1.0;
  opt.shrink = false;
  opt.verbose = false;

  const FuzzReport report = RunFuzz(opt);
  EXPECT_EQ(report.specs_run, 8);
  for (const FuzzFinding& f : report.findings) {
    ReproBundle bundle;
    bundle.spec = f.spec;
    bundle.signature = f.signature;
    ADD_FAILURE() << "unexpected " << SignatureKindName(f.signature.kind) << ": "
                  << f.signature.detail << "\nrepro bundle:\n"
                  << bundle.ToJson().Dump(2);
  }
  EXPECT_EQ(report.failures, 0);
}

// Shrunk specs of findings the fuzzer once reported at its default seeds,
// each an oracle false positive: the run was correct and the check
// overreached. Each runs on the stack its finding named and must stay clean.
struct FalsePositiveSpec {
  const char* name;
  const char* file;
  StackKind stack;
};

void PrintTo(const FalsePositiveSpec& spec, std::ostream* os) { *os << spec.file; }

class FuzzRegressionTest : public ::testing::TestWithParam<FalsePositiveSpec> {};

TEST_P(FuzzRegressionTest, ShrunkSpecRunsClean) {
  const std::string path = std::string(JUGGLER_TEST_FUZZ_SPEC_DIR) + "/" + GetParam().file;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing spec file " << path;
  std::stringstream text;
  text << in.rdbuf();
  Json json;
  std::string error;
  ASSERT_TRUE(Json::Parse(text.str(), &json, &error)) << path << ": " << error;
  ScenarioSpec spec;
  ASSERT_TRUE(ScenarioSpec::FromJson(json, &spec, &error)) << path << ": " << error;

  const ChaosEngineResult r = RunChaosEngineStack(spec.chaos, GetParam().stack);
  EXPECT_EQ(r.violations, 0u) << path;
  for (const std::string& m : r.violation_messages) {
    ADD_FAILURE() << r.engine << ": " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DefaultSeedFindings, FuzzRegressionTest,
    ::testing::Values(
        // fuzz_runner --specs 21 --seed 1: an app run ends while the app's own
        // connection still has out-of-order bytes in Juggler, ahead of their
        // ofo deadline; the overload audit's drained-table check fired.
        FalsePositiveSpec{"GroBytesInFlightAtAppEnd", "gro_bytes_in_flight_at_app_end.json",
                          StackKind::kJuggler},
        // fuzz_runner --specs 41 --seed 2: an app run ends while TCP holds
        // out-of-order data past its delivered total; the stream oracle's
        // coverage check read that range as a gap.
        FalsePositiveSpec{"CoverageInFlightAtAppEnd", "coverage_in_flight_at_app_end.json",
                          StackKind::kVanilla},
        // fuzz_runner --specs 36 --seed 4: a raw transfer sits out an RTO for
        // more than five 10 ms probe windows with its timer pending; the
        // overload stall check fired.
        FalsePositiveSpec{"OverloadIdleThroughRto", "overload_idle_through_rto.json",
                          StackKind::kVanilla}),
    [](const ::testing::TestParamInfo<FalsePositiveSpec>& info) { return info.param.name; });

}  // namespace
}  // namespace juggler
