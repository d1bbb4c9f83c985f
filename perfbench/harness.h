// Shared plumbing of the benchmark harness: wall clocks, the outcome digest,
// the in-memory span recorder of traced runs, and the batch driver that runs
// one workload's scenarios back to back.
//
// A workload is a function that builds and runs one complete simulated
// scenario through the simulator's public entry points and reports what it
// measured (ScenarioOutcome). A workload has a fixed set of seed-derived
// inputs; RunBatch cycles
// through them until the run's time budget is spent, and every repeat of an
// input must reproduce that input's first digest bit for bit.

#ifndef JUGGLER_PERFBENCH_HARNESS_H_
#define JUGGLER_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}

// FNV-1a over 64-bit words: the outcome digest of a scenario.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Spans recorded at the seams the benchmark itself calls into, kept in memory
// and written out once when the run ends. Spans of one scenario share its
// index; `parent` is the index of the enclosing span, -1 at the top.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t scenario = 0;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    // GRO busy time inside this span (run steps only), -1 when not measured.
    int64_t gro_busy_ns = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  int Begin(std::string name, uint64_t scenario, int parent = -1) {
    Span s;
    s.name = std::move(name);
    s.scenario = scenario;
    s.parent = parent;
    s.start_ns = NanosSince(origin_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  // Returns the span's duration in seconds.
  double End(int id, int64_t gro_busy_ns = -1) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NanosSince(origin_);
    s.gro_busy_ns = gro_busy_ns;
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  size_t size() const { return spans_.size(); }

  // Writes every span as one JSON document; false when the file cannot be
  // written.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// What a traced scenario reports besides its outcome: per-layer counts, summed
// over the first pass through the workload's inputs only (so they repeat
// exactly from run to run), and per-scenario time samples (reported as
// medians).
class LayerProbe {
 public:
  LayerProbe(Tracer* tracer, size_t inputs) : tracer_(tracer), inputs_(inputs) {}

  Tracer* tracer() { return tracer_; }
  uint64_t scenario() const { return scenario_; }
  bool counting() const { return scenario_ < inputs_; }

  void Count(const std::string& name, double value) {
    if (counting()) counts_[name] += value;
  }
  void CountMax(const std::string& name, double value) {
    if (counting() && value > counts_[name]) counts_[name] = value;
  }
  void Sample(const std::string& name, double value) { samples_[name].push_back(value); }

  void NextScenario() { ++scenario_; }
  // 0 when never counted.
  double count(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }
  const std::map<std::string, std::vector<double>>& samples() const { return samples_; }

 private:
  Tracer* tracer_;
  size_t inputs_;
  uint64_t scenario_ = 0;
  std::map<std::string, double> counts_;
  std::map<std::string, std::vector<double>> samples_;
};

struct ScenarioOutcome {
  double setup_s = 0;    // topology build start until the first simulated event
  double run_s = 0;      // the run phase: simulated time advancing
  uint64_t packets = 0;  // packets received by all NICs
  uint64_t digest = 0;   // outcome digest over public counters
  bool ok = true;        // the scenario's own correctness checks
  std::string error;     // why !ok (the first failed check)

  void Fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

// Runs input `input` (in [0, inputs)) once. `probe` is null when untraced.
using Scenario = std::function<ScenarioOutcome(size_t input, LayerProbe* probe)>;

// Timings of one workload's batch. Each input runs repeatedly and is timed
// by its best repeat (min-of-N): on a shared box the speed flips between a
// fast and a much slower state for seconds at a time, and the share of each
// differs from run to run. That moves medians over all repeats by about 20%
// between runs, while every run sees some fast spells, so each input's
// fastest repeat moves only a few percent.
struct BatchResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t packets = 0;  // over every scenario run
  double run_s = 0;      // over every scenario run
  // Per input, from its first run: the outcome digest and the packet count
  // (every repeat must reproduce both).
  std::vector<uint64_t> digests;
  std::vector<uint64_t> input_packets;
  // Per input, the best repeat: run phase, whole scenario (set-up and
  // teardown included), and set-up.
  std::vector<double> best_run_s;
  std::vector<double> best_scenario_s;
  std::vector<double> best_setup_s;
  std::vector<std::string> errors;  // the first few failures, for the log

  // Packets of one pass over the inputs per wall-second of their best run
  // phases.
  double PacketsPerSec() const;
  void Fail(const std::string& why);
};

// Cycles through `inputs` inputs until `seconds` of wall time have passed,
// finishing at least one full pass. A scenario fails when its own checks fail
// or its digest differs from the expected one for its input: `expect`'s entry
// when given, else the input's first digest in this batch.
BatchResult RunBatch(const Scenario& scenario, size_t inputs, double seconds, LayerProbe* probe,
                     const std::vector<uint64_t>* expect = nullptr);

double Median(std::vector<double> v);
// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench

#endif  // JUGGLER_PERFBENCH_HARNESS_H_
