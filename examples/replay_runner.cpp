// Deterministic replay of a forensics repro bundle.
//
// Reads a bundle written by fuzz_runner (or by hand), re-executes its
// ScenarioSpec in a watchdogged child — exactly the way the fuzzer ran it —
// and checks the observed FailureSignature against the recorded one. Runs
// the replay `--repeat` times (default 2) so flaky "reproductions" are
// caught immediately: a real bundle produces the identical fingerprint
// every single time.
//
// Usage:
//   ./build/examples/replay_runner --bundle repro/bundle-<fp>.json
//   ./build/examples/replay_runner --bundle x.json --repeat 5 --timeout-ms 60000
//   ./build/examples/replay_runner --bundle x.json --trace out.json
//
// Exit status: 0 when every replay reproduced the recorded signature.
// --trace writes the bundle's attached flight-recorder trace (Chrome/Perfetto
// JSON) to FILE; when the bundle carries none, the spec is re-run in-process
// with tracing on — cooperative failure kinds only.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/forensics/repro_bundle.h"
#include "src/obs/flight_recorder.h"

using namespace juggler;

int main(int argc, char** argv) {
  std::string bundle_path;
  std::string trace_path;
  int repeat = 2;
  int timeout_ms = 30'000;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--bundle") == 0) {
      bundle_path = next("--bundle");
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      repeat = std::atoi(next("--repeat"));
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      timeout_ms = std::atoi(next("--timeout-ms"));
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = next("--trace");
    } else {
      std::fprintf(stderr,
                   "usage: %s --bundle FILE [--repeat N] [--timeout-ms T] [--trace FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (bundle_path.empty()) {
    std::fprintf(stderr, "--bundle is required\n");
    return 2;
  }

  ReproBundle bundle;
  std::string error;
  if (!ReadBundleFile(bundle_path, &bundle, &error)) {
    std::fprintf(stderr, "cannot load bundle: %s\n", error.c_str());
    return 2;
  }

  std::printf("bundle: %s\n", bundle_path.c_str());
  std::printf("  recorded: [%016llx] %s: %s\n",
              static_cast<unsigned long long>(bundle.signature.fingerprint),
              SignatureKindName(bundle.signature.kind), bundle.signature.detail.c_str());
  if (!bundle.notes.empty()) {
    std::printf("  notes: %s\n", bundle.notes.c_str());
  }
  std::printf("  spec: family=%s seed=%llu bytes=%llu timeline=%zu event(s)\n\n",
              FaultFamilyName(bundle.spec.chaos.family),
              static_cast<unsigned long long>(bundle.spec.chaos.seed),
              static_cast<unsigned long long>(bundle.spec.chaos.transfer_bytes),
              bundle.spec.TimelineEvents());

  int reproduced = 0;
  for (int i = 0; i < repeat; ++i) {
    const ReplayResult r = ReplayBundle(bundle, timeout_ms);
    std::printf("replay %d/%d: [%016llx] %s: %s -> %s (%lldms)\n", i + 1, repeat,
                static_cast<unsigned long long>(r.observed.fingerprint),
                SignatureKindName(r.observed.kind), r.observed.detail.c_str(),
                r.reproduced ? "reproduced" : "DIFFERENT", (long long)r.outcome.child.wall_ms);
    if (r.reproduced) {
      ++reproduced;
    }
  }

  if (!trace_path.empty()) {
    Json trace;
    const Json* attached =
        bundle.obs.is_object() ? bundle.obs.Find("trace") : nullptr;
    if (attached != nullptr) {
      trace = *attached;
      std::printf("\ntrace: using the bundle's attached flight-recorder snapshot\n");
    } else {
      const SignatureKind kind = bundle.signature.kind;
      const bool cooperative = kind == SignatureKind::kInvariantViolation ||
                               kind == SignatureKind::kDigestDivergence ||
                               kind == SignatureKind::kException;
      if (!cooperative || bundle.spec.plant_wedge) {
        std::fprintf(stderr,
                     "trace: bundle has no attachment and its failure kind is not safe"
                     " to re-run in-process\n");
        return 2;
      }
      std::printf("\ntrace: no attachment in bundle; re-running the spec with tracing on\n");
      const Json obs = CollectSpecObs(bundle.spec);
      const Json* fresh = obs.Find("trace");
      if (fresh == nullptr) {
        std::string why = "unknown";
        obs.GetString("error", &why);
        std::fprintf(stderr, "trace: in-process collection failed: %s\n", why.c_str());
        return 2;
      }
      trace = *fresh;
    }
    std::string werr;
    if (!WriteTraceFile(trace_path, trace, &werr)) {
      std::fprintf(stderr, "trace write failed: %s\n", werr.c_str());
      return 2;
    }
    std::printf("trace -> %s\n", trace_path.c_str());
  }

  std::printf("\n%d/%d replays reproduced the recorded signature: %s\n", reproduced, repeat,
              reproduced == repeat ? "PASS" : "FAIL");
  return reproduced == repeat ? 0 : 1;
}
