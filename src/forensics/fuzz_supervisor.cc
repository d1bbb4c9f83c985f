#include "src/forensics/fuzz_supervisor.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "src/util/rng.h"

namespace juggler {
namespace {

std::string HexFingerprint(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace

FuzzReport RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  Rng rng(options.seed);
  if (!options.out_dir.empty()) {
    ::mkdir(options.out_dir.c_str(), 0755);  // EEXIST is fine
  }
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start]() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  for (int i = 0; i < options.num_specs; ++i) {
    if (options.time_budget_ms > 0 && elapsed_ms() >= options.time_budget_ms) {
      break;
    }
    ScenarioSpec spec = SampleScenarioSpec(&rng, options.limits);
    spec.chaos.plant_flush_skew = options.plant_flush_skew;
    if (options.plant_app_stale_token) {
      // Deterministic overrides, not samples: the stale-token bug only
      // manifests when an attempt times out and its retry reaches the
      // server, so pin link-flap pressure (2-12 ms blackholes) against an
      // attempt timeout it always outlasts.
      spec.chaos.family = FaultFamily::kLinkFlap;
      AppWorkloadOptions& app = spec.chaos.app;
      app.kind = AppWorkloadKind::kRpc;
      app.sessions = 2;
      app.requests_per_session = 6;
      app.response_bytes = 12'288;
      app.retry.attempt_timeout = Ms(2);
      app.plant_stale_token = true;
    }
    if (options.plant_corec_wedge) {
      // Deterministic overrides: the wedge only exists on the COREC driver,
      // and a raw bulk transfer makes the resulting stall a clean integrity
      // violation (app retries would muddy the signature).
      spec.chaos.rx_driver = RxDriverKind::kCorec;
      spec.chaos.plant_corec_wedge = true;
      spec.chaos.app = AppWorkloadOptions{};
    }
    ExecOptions exec;
    exec.timeout_ms = options.timeout_ms;
    const SpecOutcome outcome = ExecuteSpec(spec, exec);
    ++report.specs_run;
    if (options.verbose) {
      std::printf("  spec %3d: family=%s seed=%llu shards=%llu -> %s%s%s\n", i,
                  FaultFamilyName(spec.chaos.family),
                  static_cast<unsigned long long>(spec.chaos.seed),
                  static_cast<unsigned long long>(spec.chaos.shards),
                  SignatureKindName(outcome.signature.kind),
                  outcome.signature.detail.empty() ? "" : ": ",
                  outcome.signature.detail.c_str());
    }
    if (!outcome.signature.failure()) {
      continue;
    }
    ++report.failures;
    bool known = false;
    for (const FuzzFinding& f : report.findings) {
      if (f.signature.fingerprint == outcome.signature.fingerprint) {
        known = true;
        break;
      }
    }
    if (known) {
      continue;
    }

    FuzzFinding finding;
    finding.spec_index = i;
    finding.spec = spec;
    finding.signature = outcome.signature;
    finding.shrunk = spec;
    if (options.shrink) {
      ShrinkOptions sopt = options.shrink_options;
      sopt.timeout_ms = options.timeout_ms;
      const ShrinkResult shrunk = ShrinkSpec(spec, outcome.signature, sopt);
      finding.shrunk = shrunk.spec;
      finding.shrink_runs = shrunk.runs;
      finding.shrink_accepted = shrunk.accepted;
    }
    if (!options.out_dir.empty()) {
      ReproBundle bundle;
      bundle.spec = finding.shrunk;
      bundle.signature = finding.signature;
      const SignatureKind kind = finding.signature.kind;
      const bool cooperative = kind == SignatureKind::kInvariantViolation ||
                               kind == SignatureKind::kDigestDivergence ||
                               kind == SignatureKind::kException;
      if (options.attach_obs && cooperative && !finding.shrunk.plant_wedge) {
        bundle.obs = CollectSpecObs(finding.shrunk);
      }
      bundle.notes = "fuzz seed " + std::to_string(options.seed) + ", spec #" +
                     std::to_string(i) + ", shrink " + std::to_string(finding.shrink_accepted) +
                     "/" + std::to_string(finding.shrink_runs) + " reductions";
      const std::string path =
          options.out_dir + "/bundle-" + HexFingerprint(finding.signature.fingerprint) + ".json";
      std::string error;
      if (WriteBundleFile(bundle, path, &error)) {
        finding.bundle_path = path;
      } else if (options.verbose) {
        std::printf("  bundle write failed: %s\n", error.c_str());
      }
    }
    report.findings.push_back(std::move(finding));
  }
  return report;
}

}  // namespace juggler
