// perfbench: the repository benchmark's driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--commit ID]
//
// Runs one workload for S seconds of wall time and prints, as its last line
// of standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 gives the end-to-end metrics, --trace 1 the
// per-layer ones (and writes the spans to PATH when given). The line before
// it records the context of the result: hardware threads, build type and
// commit. Exit status: 0 with a result, 2 on a usage error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--commit ID]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// Parses a whole non-negative decimal number; false on anything else.
bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  perfbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 && ParseUint(value, &v)) {
      options.seed = v;
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0 && ParseUint(value, &v) && v >= 1 &&
               v <= 600) {
      options.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0 && ParseUint(value, &v) && v <= 1) {
      options.trace = v == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--spans") == 0) {
      options.spans_path = value;
    } else if (std::strcmp(flag, "--commit") == 0) {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  perfbench::RunReport report;
  if (!perfbench::RunWorkload(workload, options, &report)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
    return Usage();
  }

  for (const std::string& line : report.log) std::printf("%s\n", line.c_str());
  std::printf("context {\"hardware_threads\": %u, \"build_type\": \"%s\", \"commit\": \"%s\"}\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, commit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              report.failed == 0 && report.attempted > 0 ? "true" : "false", report.attempted,
              report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
