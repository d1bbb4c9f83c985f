// Property tests: Juggler is fed randomized permutations of a packet stream
// and must uphold its core invariants.
//
//  P1 (no loss, no duplication): with unique input packets, every payload
//     byte is delivered exactly once — for ANY arrival order, any table
//     size, any timeout configuration. Evictions flush, never drop.
//  P2 (best-effort ordering): when the reordering window fits inside
//     ofo_timeout and the gro_table never overflows, delivered segments are
//     strictly in sequence order — the transport sees zero reordering.
//  P3 (bounded state): the flow table never exceeds max_flows, regardless of
//     how many flows the input touches.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/juggler.h"
#include "src/obs/flight_recorder.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

// Displace each element of [0, n) by up to `window` positions.
std::vector<uint32_t> WindowedShuffle(uint32_t n, uint32_t window, Rng* rng) {
  std::vector<std::pair<double, uint32_t>> keyed;
  keyed.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const double jitter = window == 0 ? 0.0 : rng->NextDouble() * static_cast<double>(window);
    keyed.emplace_back(static_cast<double>(i) + jitter, i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<uint32_t> out;
  out.reserve(n);
  for (const auto& [key, index] : keyed) {
    out.push_back(index);
  }
  return out;
}

// Validates delivered segments cover [0, n*kMss) exactly once; returns the
// number of ordering violations (segment starting before the previous end).
struct CoverageResult {
  bool exact = false;
  uint32_t order_violations = 0;
};

CoverageResult CheckCoverage(const std::vector<Segment>& delivered, uint64_t total_bytes) {
  CoverageResult result;
  std::map<uint64_t, uint64_t> ranges;  // start -> end, must not overlap
  Seq prev_end = 0;
  bool first = true;
  for (const auto& s : delivered) {
    if (s.payload_len == 0) {
      continue;
    }
    if (!first && SeqBefore(s.seq, prev_end)) {
      ++result.order_violations;
    }
    first = false;
    prev_end = SeqMax(prev_end, s.end_seq());
    const uint64_t start = s.seq;  // test streams stay below 2^32
    const uint64_t end = start + s.payload_len;
    auto [it, inserted] = ranges.emplace(start, end);
    if (!inserted) {
      return result;  // duplicate start: not exact
    }
  }
  // Ranges must tile [0, total_bytes) with no gaps or overlaps.
  uint64_t cursor = 0;
  for (const auto& [start, end] : ranges) {
    if (start != cursor) {
      return result;
    }
    cursor = end;
  }
  result.exact = cursor == total_bytes;
  return result;
}

struct PropertyParams {
  uint64_t seed;
  uint32_t window;      // reorder displacement, in packets
  size_t table_size;
  uint32_t num_flows;
};

// gtest prints the parameter into each test's listed name; without this it
// dumps the struct's bytes, padding included, so names varied by build.
void PrintTo(const PropertyParams& p, std::ostream* os) {
  *os << "seed=" << p.seed << " window=" << p.window << " table_size=" << p.table_size
      << " num_flows=" << p.num_flows;
}

class JugglerPropertyTest : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(JugglerPropertyTest, NoLossNoDuplicationUnderAnyReordering) {
  const PropertyParams p = GetParam();
  JugglerConfig config;
  config.max_flows = p.table_size;
  GroHarness h(
      [config](const CpuCostModel* c) { return std::make_unique<Juggler>(c, config); });
  Rng rng(p.seed);

  const uint32_t packets_per_flow = 300;
  // Interleave flows round-robin, each flow's packets windowed-shuffled.
  std::vector<std::vector<uint32_t>> orders;
  for (uint32_t f = 0; f < p.num_flows; ++f) {
    orders.push_back(WindowedShuffle(packets_per_flow, p.window, &rng));
  }
  size_t max_table = 0;
  for (uint32_t i = 0; i < packets_per_flow; ++i) {
    for (uint32_t f = 0; f < p.num_flows; ++f) {
      const Seq seq = orders[f][i] * kMss;
      h.Receive(MakeDataPacket(TestFlow(static_cast<uint16_t>(f + 1), 9), seq, kMss));
      max_table = std::max(max_table, static_cast<Juggler*>(h.engine())->flow_table_size());
    }
    // A polling round every few packets, with time advancing.
    if (i % 4 == 3) {
      h.Advance(Us(3));
      h.PollComplete();
      h.MaybeFireTimer();
    }
  }
  // Drain: let every timeout fire.
  for (int i = 0; i < 10; ++i) {
    h.Advance(Ms(1));
    h.PollComplete();
    h.MaybeFireTimer();
  }

  // P3: bounded state.
  EXPECT_LE(max_table, p.table_size);

  // P1: per-flow exact coverage.
  std::map<uint16_t, std::vector<Segment>> by_flow;
  for (const auto& s : h.delivered()) {
    by_flow[s.flow.src_port].push_back(s);
  }
  ASSERT_EQ(by_flow.size(), p.num_flows);
  for (const auto& [port, segments] : by_flow) {
    const CoverageResult cov =
        CheckCoverage(segments, static_cast<uint64_t>(packets_per_flow) * kMss);
    EXPECT_TRUE(cov.exact) << "flow " << port << " coverage not exact";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JugglerPropertyTest,
    ::testing::Values(
        PropertyParams{1, 0, 64, 1},     // in-order baseline
        PropertyParams{2, 3, 64, 1},     // light reorder
        PropertyParams{3, 20, 64, 1},    // heavy reorder
        PropertyParams{4, 100, 64, 1},   // extreme reorder
        PropertyParams{5, 20, 64, 8},    // multi-flow
        PropertyParams{6, 20, 4, 8},     // table thrashing (evictions)
        PropertyParams{7, 50, 2, 16},    // severe thrashing
        PropertyParams{8, 7, 1, 4},      // degenerate single-entry table
        PropertyParams{9, 200, 8, 4},    // reorder beyond ofo window
        PropertyParams{10, 35, 16, 12}),
    [](const ::testing::TestParamInfo<PropertyParams>& info) {
      const PropertyParams& p = info.param;
      return "seed" + std::to_string(p.seed) + "_w" + std::to_string(p.window) + "_t" +
             std::to_string(p.table_size) + "_f" + std::to_string(p.num_flows);
    });

class JugglerOrderingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JugglerOrderingTest, HidesReorderingWhenWindowFitsTimeouts) {
  // P2: ample table + ofo_timeout larger than the reordering extent ->
  // strictly in-order delivery, no loss-recovery transitions.
  JugglerConfig config;
  config.max_flows = 64;
  config.ofo_timeout = Ms(10);
  GroHarness h(
      [config](const CpuCostModel* c) { return std::make_unique<Juggler>(c, config); });
  Rng rng(GetParam());

  const uint32_t n = 2000;
  const std::vector<uint32_t> order = WindowedShuffle(n, 30, &rng);
  const FiveTuple flow = TestFlow();
  for (uint32_t i = 0; i < n; ++i) {
    h.Receive(MakeDataPacket(flow, order[i] * kMss, kMss));
    if (i % 8 == 7) {
      h.Advance(Us(2));
      h.PollComplete();
      h.MaybeFireTimer();
    }
  }
  h.Advance(Ms(20));
  h.PollComplete();
  h.MaybeFireTimer();

  const CoverageResult cov = CheckCoverage(h.delivered(), static_cast<uint64_t>(n) * kMss);
  EXPECT_TRUE(cov.exact);
  EXPECT_EQ(cov.order_violations, 0u);
  const auto* engine = static_cast<Juggler*>(h.engine());
  EXPECT_EQ(engine->juggler_stats().ofo_timeout_events, 0u);
  EXPECT_EQ(engine->juggler_stats().loss_recovery_entries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JugglerOrderingTest, ::testing::Range<uint64_t>(1, 13));

class JugglerLossTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JugglerLossTest, LostPacketsFlushRestViaOfoTimeout) {
  // Drop some packets from the stream entirely: Juggler must flush the rest
  // (TCP needs the holes visible to recover) and enter loss recovery.
  JugglerConfig config;
  GroHarness h(
      [config](const CpuCostModel* c) { return std::make_unique<Juggler>(c, config); });
  Rng rng(GetParam());

  const uint32_t n = 500;
  const FiveTuple flow = TestFlow();
  uint64_t delivered_expected = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.02)) {
      continue;  // lost on the wire
    }
    delivered_expected += kMss;
    h.Receive(MakeDataPacket(flow, i * kMss, kMss));
    if (i % 8 == 7) {
      h.Advance(Us(3));
      h.PollComplete();
      h.MaybeFireTimer();
    }
  }
  for (int i = 0; i < 10; ++i) {
    h.Advance(Us(100));
    h.PollComplete();
    h.MaybeFireTimer();
  }
  EXPECT_EQ(TotalPayload(h.delivered()), delivered_expected);
  EXPECT_GT(static_cast<Juggler*>(h.engine())->juggler_stats().ofo_timeout_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JugglerLossTest, ::testing::Range<uint64_t>(1, 9));

// P4 (phase machine, §4 / Figure 5): every phase transition the flight
// recorder captures must be an edge of the paper's phase diagram, the trace
// must agree with the phase_transitions[][] counters, and the per-phase byte
// split must conserve payload (enqueued = flushed + evicted + held, with
// held = 0 after a full drain).
class JugglerPhaseMachineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JugglerPhaseMachineTest, TraceTransitionsArePermittedFigure5Edges) {
  // Permitted edges, as (from, to) with kFlowPhaseNone = creation.
  const std::set<std::pair<int, int>> permitted = {
      {kFlowPhaseNone, static_cast<int>(FlowPhase::kBuildUp)},
      {static_cast<int>(FlowPhase::kBuildUp), static_cast<int>(FlowPhase::kActiveMerge)},
      {static_cast<int>(FlowPhase::kBuildUp), static_cast<int>(FlowPhase::kPostMerge)},
      {static_cast<int>(FlowPhase::kBuildUp), static_cast<int>(FlowPhase::kLossRecovery)},
      {static_cast<int>(FlowPhase::kActiveMerge), static_cast<int>(FlowPhase::kPostMerge)},
      {static_cast<int>(FlowPhase::kActiveMerge),
       static_cast<int>(FlowPhase::kLossRecovery)},
      {static_cast<int>(FlowPhase::kPostMerge), static_cast<int>(FlowPhase::kActiveMerge)},
      {static_cast<int>(FlowPhase::kLossRecovery),
       static_cast<int>(FlowPhase::kActiveMerge)},
  };

  // A stream nasty enough to visit every phase: heavy reordering (loss
  // recovery), a small table (evictions + reincarnations), several flows.
  JugglerConfig config;
  config.max_flows = 4;
  GroHarness h(
      [config](const CpuCostModel* c) { return std::make_unique<Juggler>(c, config); });
  FlightRecorder recorder(/*shard=*/0, /*capacity=*/1u << 18);
  h.AttachRecorder(&recorder);
  Rng rng(GetParam());

  const uint32_t packets_per_flow = 200;
  const uint32_t num_flows = 8;
  std::vector<std::vector<uint32_t>> orders;
  for (uint32_t f = 0; f < num_flows; ++f) {
    orders.push_back(WindowedShuffle(packets_per_flow, 40, &rng));
  }
  for (uint32_t i = 0; i < packets_per_flow; ++i) {
    for (uint32_t f = 0; f < num_flows; ++f) {
      h.Receive(MakeDataPacket(TestFlow(static_cast<uint16_t>(f + 1), 9),
                               orders[f][i] * kMss, kMss));
    }
    if (i % 4 == 3) {
      h.Advance(Us(3));
      h.PollComplete();
      h.MaybeFireTimer();
    }
  }
  for (int i = 0; i < 10; ++i) {
    h.Advance(Ms(1));
    h.PollComplete();
    h.MaybeFireTimer();
  }

  const auto* engine = static_cast<Juggler*>(h.engine());
  const JugglerStats& stats = engine->juggler_stats();

  // Every recorded transition is a permitted edge, and the trace tally
  // matches the stats counters edge-for-edge (the recorder never filled, so
  // nothing was overwritten).
  ASSERT_EQ(recorder.dropped(), 0u) << "recorder capacity too small for this stream";
  uint64_t traced[kFlowPhaseCount + 1][kFlowPhaseCount] = {};
  uint64_t phase_event_count = 0;
  for (const TraceEvent& e : recorder.Snapshot()) {
    if (e.kind != TraceKind::kPhase) {
      continue;
    }
    ++phase_event_count;
    const int from = static_cast<int>(e.a);
    const int to = static_cast<int>(e.b);
    ASSERT_GE(from, 0);
    ASSERT_LE(from, kFlowPhaseNone);
    ASSERT_GE(to, 0);
    ASSERT_LT(to, kFlowPhaseCount);
    EXPECT_TRUE(permitted.count({from, to}) != 0)
        << "forbidden phase transition " << from << " -> " << to;
    ++traced[from][to];
  }
  EXPECT_GT(phase_event_count, 0u) << "stream never exercised the phase machine";
  uint64_t loss_entries_traced = 0;
  for (int from = 0; from <= kFlowPhaseCount; ++from) {
    for (int to = 0; to < kFlowPhaseCount; ++to) {
      EXPECT_EQ(traced[from][to], stats.phase_transitions[from][to])
          << "trace/stats disagree on edge " << from << " -> " << to;
      if (to == static_cast<int>(FlowPhase::kLossRecovery)) {
        loss_entries_traced += traced[from][to];
      }
    }
  }
  EXPECT_EQ(loss_entries_traced, stats.loss_recovery_entries);
  EXPECT_EQ(traced[kFlowPhaseNone][static_cast<int>(FlowPhase::kBuildUp)],
            stats.flows_created);

  // Packet conservation, split by phase. After the drain every OOO queue is
  // empty, so held = 0 and the books must balance exactly.
  uint64_t held = 0;
  for (const auto& flow : engine->Audit().flows) {
    held += flow.buffered_bytes;
  }
  ASSERT_EQ(held, 0u) << "drain left buffered payload behind";
  uint64_t enqueued = 0;
  uint64_t flushed = 0;
  for (int phase = 0; phase < kFlowPhaseCount; ++phase) {
    enqueued += stats.enqueued_bytes_by_phase[phase];
    flushed += stats.flushed_bytes_by_phase[phase];
  }
  EXPECT_EQ(stats.buffered_bytes_in, enqueued);
  EXPECT_EQ(stats.buffered_bytes_out, flushed + stats.evicted_bytes);
  EXPECT_EQ(enqueued, flushed + stats.evicted_bytes) << "per-phase conservation violated";
  // The post-merge phase holds an empty queue by definition: nothing can be
  // enqueued to it (arrivals transition the flow out first).
  EXPECT_EQ(stats.enqueued_bytes_by_phase[static_cast<int>(FlowPhase::kPostMerge)], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JugglerPhaseMachineTest, ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace juggler
