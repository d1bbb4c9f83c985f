#include "perfbench/harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

bool Tracer::Write(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"), &std::fclose);
  if (out == nullptr) return false;
  std::fprintf(out.get(), "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out.get(),
                 "%s\n{\"id\": %zu, \"name\": \"%s\", \"scenario\": %" PRIu64
                 ", \"parent\": %d, \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64,
                 i == 0 ? "" : ",", i, s.name.c_str(), s.scenario, s.parent, s.start_ns,
                 s.end_ns);
    if (s.gro_busy_ns >= 0) {
      std::fprintf(out.get(), ", \"gro_busy_ns\": %" PRId64, s.gro_busy_ns);
    }
    std::fprintf(out.get(), "}");
  }
  std::fprintf(out.get(), "\n]}\n");
  return std::ferror(out.get()) == 0;
}

double BatchResult::PacketsPerSec() const {
  double packets_per_pass = 0;
  double seconds_per_pass = 0;
  for (size_t i = 0; i < best_run_s.size(); ++i) {
    packets_per_pass += static_cast<double>(input_packets[i]);
    seconds_per_pass += best_run_s[i];
  }
  return seconds_per_pass > 0 ? packets_per_pass / seconds_per_pass : 0;
}

void BatchResult::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

BatchResult RunBatch(const Scenario& scenario, size_t inputs, double seconds, LayerProbe* probe,
                     const std::vector<uint64_t>* expect) {
  BatchResult r;
  const Clock::time_point start = Clock::now();
  for (uint64_t n = 0; n < inputs || SecondsSince(start) < seconds; ++n) {
    const size_t input = static_cast<size_t>(n % inputs);
    const Clock::time_point t0 = Clock::now();
    const ScenarioOutcome o = scenario(input, probe);
    const double scenario_s = SecondsSince(t0);
    r.run_s += o.run_s;
    r.packets += o.packets;
    ++r.attempted;
    if (n < inputs) {
      r.digests.push_back(o.digest);
      r.input_packets.push_back(o.packets);
      r.best_run_s.push_back(o.run_s);
      r.best_scenario_s.push_back(scenario_s);
      r.best_setup_s.push_back(o.setup_s);
    } else {
      r.best_run_s[input] = std::min(r.best_run_s[input], o.run_s);
      r.best_scenario_s[input] = std::min(r.best_scenario_s[input], scenario_s);
      r.best_setup_s[input] = std::min(r.best_setup_s[input], o.setup_s);
    }
    const uint64_t want = expect != nullptr ? (*expect)[input] : r.digests[input];
    if (!o.ok) {
      r.Fail("input " + std::to_string(input) + ": " + o.error);
    } else if (o.digest != want || o.packets != r.input_packets[input]) {
      r.Fail("input " + std::to_string(input) + ": outcome digest " + std::to_string(o.digest) +
             " != " + std::to_string(want));
    }
    if (probe != nullptr) probe->NextScenario();
  }
  return r;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace perfbench
