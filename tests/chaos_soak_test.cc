// Differential chaos tests (ctest label: "chaos").
//
// Each test drives the same bulk transfer through Juggler (with structural
// invariant auditing) and through standard GRO under one fault family, over
// several seeds, and requires: both transfers complete, zero invariant
// violations, and byte-identical delivered streams. A final test pins the
// determinism contract: the same seed must reproduce a bit-identical run.
//
// The 20-seed-per-family acceptance soak lives in bench/chaos_soak; these
// tests keep a representative slice of it in the default `ctest` run.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/chaos_scenario.h"
#include "src/sim/sweep_runner.h"
#include "src/util/json.h"

namespace juggler {
namespace {

constexpr int kSeedsPerFamily = 4;

void RunFamily(FaultFamily family) {
  for (int s = 0; s < kSeedsPerFamily; ++s) {
    ChaosOptions opt;
    opt.seed = 1 + static_cast<uint64_t>(s);
    opt.family = family;
    const ChaosResult r = RunChaos(opt);
    EXPECT_TRUE(r.juggler.completed)
        << FaultFamilyName(family) << " seed " << opt.seed << ": juggler delivered "
        << r.juggler.bytes_delivered << " of " << opt.transfer_bytes;
    EXPECT_TRUE(r.baseline.completed)
        << FaultFamilyName(family) << " seed " << opt.seed << ": baseline delivered "
        << r.baseline.bytes_delivered << " of " << opt.transfer_bytes;
    EXPECT_EQ(r.juggler.violations, 0u)
        << FaultFamilyName(family) << " seed " << opt.seed << ": "
        << (r.juggler.violation_messages.empty() ? "" : r.juggler.violation_messages.front());
    EXPECT_EQ(r.baseline.violations, 0u)
        << FaultFamilyName(family) << " seed " << opt.seed << ": "
        << (r.baseline.violation_messages.empty() ? ""
                                                  : r.baseline.violation_messages.front());
    EXPECT_TRUE(r.streams_match)
        << FaultFamilyName(family) << " seed " << opt.seed << ": juggler "
        << r.juggler.bytes_delivered << " vs baseline " << r.baseline.bytes_delivered;
    EXPECT_GT(r.juggler.audits, 0u) << "auditor never ran";
  }
}

TEST(ChaosSoakTest, DropBursts) { RunFamily(FaultFamily::kDropBurst); }

TEST(ChaosSoakTest, Duplication) { RunFamily(FaultFamily::kDuplicate); }

TEST(ChaosSoakTest, Corruption) { RunFamily(FaultFamily::kCorrupt); }

TEST(ChaosSoakTest, DelaySpikes) { RunFamily(FaultFamily::kDelaySpike); }

TEST(ChaosSoakTest, LinkFlaps) { RunFamily(FaultFamily::kLinkFlap); }

TEST(ChaosSoakTest, MixedFaults) { RunFamily(FaultFamily::kMixed); }

TEST(ChaosSoakTest, CorruptionRunsSeeChecksumDrops) {
  // The corruption family must actually exercise the NIC's checksum
  // validation path (otherwise the family tests nothing).
  uint64_t total_checksum_drops = 0;
  for (int s = 0; s < kSeedsPerFamily; ++s) {
    ChaosOptions opt;
    opt.seed = 1 + static_cast<uint64_t>(s);
    opt.family = FaultFamily::kCorrupt;
    total_checksum_drops += RunChaos(opt).juggler.checksum_drops;
  }
  EXPECT_GT(total_checksum_drops, 0u);
}

TEST(ChaosSoakTest, SameSeedBitIdenticalDigest) {
  for (FaultFamily family :
       {FaultFamily::kDropBurst, FaultFamily::kDelaySpike, FaultFamily::kLinkFlap,
        FaultFamily::kMixed}) {
    ChaosOptions opt;
    opt.seed = 11;
    opt.family = family;
    const ChaosResult r1 = RunChaos(opt);
    const ChaosResult r2 = RunChaos(opt);
    EXPECT_EQ(r1.juggler.digest, r2.juggler.digest) << FaultFamilyName(family);
    EXPECT_EQ(r1.baseline.digest, r2.baseline.digest) << FaultFamilyName(family);
    EXPECT_EQ(r1.juggler.finish_time, r2.juggler.finish_time) << FaultFamilyName(family);
  }
}

TEST(ChaosSoakTest, DigestsIdenticalAcrossSweepThreads) {
  // The parallel sweep runner gives every worker thread its own PacketPool
  // and each point builds its own world, so a chaos run's digest must not
  // depend on which thread (or how warm a pool) executed it. Run the same
  // points sequentially and on a multi-threaded sweep; bit-identical digests
  // are required.
  const FaultFamily families[] = {FaultFamily::kDropBurst, FaultFamily::kDuplicate,
                                  FaultFamily::kDelaySpike};
  auto point = [&families](size_t i) {
    ChaosOptions opt;
    opt.seed = 11;
    opt.family = families[i];
    return RunChaos(opt);
  };
  const std::vector<ChaosResult> sequential = RunSweep(3, point, /*num_threads=*/1);
  const std::vector<ChaosResult> threaded = RunSweep(3, point, /*num_threads=*/3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sequential[i].juggler.digest, threaded[i].juggler.digest)
        << FaultFamilyName(families[i]);
    EXPECT_EQ(sequential[i].baseline.digest, threaded[i].baseline.digest)
        << FaultFamilyName(families[i]);
    EXPECT_EQ(sequential[i].juggler.finish_time, threaded[i].juggler.finish_time)
        << FaultFamilyName(families[i]);
  }
}

TEST(ChaosSoakTest, DifferentSeedsDifferentFaultPatterns) {
  ChaosOptions a;
  a.seed = 3;
  a.family = FaultFamily::kDropBurst;
  ChaosOptions b = a;
  b.seed = 4;
  EXPECT_NE(RunChaos(a).juggler.digest, RunChaos(b).juggler.digest);
}

// ------------------------------------------------ unpartitioned golden --

#ifndef JUGGLER_TEST_GOLDEN_DIR
#define JUGGLER_TEST_GOLDEN_DIR "tests/golden"
#endif

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

Json GoldenRow(const std::string& name, const ChaosOptions& opt) {
  const ChaosResult r = RunChaos(opt);
  Json row = Json::Object();
  row.Set("case", Json::Str(name));
  row.Set("juggler_digest", Json::Str(Hex(r.juggler.digest)));
  row.Set("juggler_finish_ns", Json::Int(r.juggler.finish_time));
  row.Set("baseline_digest", Json::Str(Hex(r.baseline.digest)));
  row.Set("baseline_finish_ns", Json::Int(r.baseline.finish_time));
  return row;
}

// Every unpartitioned (shards=0) run the golden pins: the five families and
// the mix x 4 seeds, plus one overload run (incast, churn and brown-out
// windows, as `chaos_runner --overload` sets them) and one RPC app run (as
// `chaos_runner --app rpc`).
Json UnpartitionedDigests() {
  Json rows = Json::Array();
  for (FaultFamily family :
       {FaultFamily::kDropBurst, FaultFamily::kDuplicate, FaultFamily::kCorrupt,
        FaultFamily::kDelaySpike, FaultFamily::kLinkFlap, FaultFamily::kMixed}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ChaosOptions opt;
      opt.seed = seed;
      opt.family = family;
      rows.Push(GoldenRow(std::string(FaultFamilyName(family)) + "/" + std::to_string(seed), opt));
    }
  }

  ChaosOptions overload;
  overload.family = FaultFamily::kDropBurst;
  overload.overload.pool_capacity = 4'096;
  OverloadWindow incast;
  incast.kind = OverloadKind::kIncast;
  incast.start = Ms(5);
  incast.end = Ms(15);
  incast.flows = 96;
  incast.packets_per_flow = 4;
  incast.burst_interval = Us(150);
  overload.overload.windows.push_back(incast);
  OverloadWindow churn;
  churn.kind = OverloadKind::kChurn;
  churn.start = Ms(20);
  churn.end = Ms(30);
  churn.flows = 64;
  churn.packets_per_flow = 2;
  churn.burst_interval = Us(200);
  overload.overload.windows.push_back(churn);
  OverloadWindow brownout;
  brownout.kind = OverloadKind::kBrownout;
  brownout.start = Ms(35);
  brownout.end = Ms(45);
  brownout.cap_pct = 25;
  overload.overload.windows.push_back(brownout);
  rows.Push(GoldenRow("overload/drop-burst/1", overload));

  ChaosOptions rpc;
  rpc.family = FaultFamily::kMixed;
  rpc.app.kind = AppWorkloadKind::kRpc;
  rpc.app.response_bytes = 12'288;
  rpc.app.chunk_bytes = 49'152;
  rpc.app.transfer_bytes_per_session = 3 * rpc.app.chunk_bytes;
  rows.Push(GoldenRow("app-rpc/mixed/1", rpc));
  return rows;
}

TEST(ChaosSoakTest, UnpartitionedDigestsMatchGolden) {
  const std::string golden_path =
      std::string(JUGGLER_TEST_GOLDEN_DIR) + "/chaos_unpartitioned_digests.json";
  const std::string current = UnpartitionedDigests().Dump(1) + "\n";

  if (std::getenv("JUGGLER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << current;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with JUGGLER_REGEN_GOLDEN=1)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), current)
      << "shards=0 chaos digests changed; if intentional, regenerate with\n"
         "  JUGGLER_REGEN_GOLDEN=1 ./chaos_soak_test "
         "--gtest_filter='ChaosSoakTest.UnpartitionedDigestsMatchGolden'";
}

}  // namespace
}  // namespace juggler
