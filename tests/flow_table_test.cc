// FlowTable<T> unit tests: the open-addressing + slab-value container under
// every GRO engine's per-flow state. Pins the properties the engines lean
// on — pointer stability across rehash, insertion-order iteration,
// tombstone reuse, clock eviction, and the resident-bytes accounting the
// perf_core bench reports.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/gro/flow_table.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

// A value type that counts its constructions and destructions, so leaks and
// double-destroys in the slab lifecycle are visible.
struct Counted {
  static int live;
  int payload = 0;
  Counted() { ++live; }
  ~Counted() { --live; }
};
int Counted::live = 0;

TEST(FlowTableTest, FindOrCreateThenFind) {
  FlowTable<int> table;
  EXPECT_TRUE(table.empty());
  auto [value, created] = table.FindOrCreate(TestFlow(1, 1));
  EXPECT_TRUE(created);
  *value = 42;
  auto [again, created2] = table.FindOrCreate(TestFlow(1, 1));
  EXPECT_FALSE(created2);
  EXPECT_EQ(again, value);
  EXPECT_EQ(*table.Find(TestFlow(1, 1)), 42);
  EXPECT_EQ(table.Find(TestFlow(2, 2)), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, PointersStableAcrossRehash) {
  // Engines memoize T* (Juggler's last_entry_, intrusive phase lists), so
  // growing the slot array must never move a value.
  FlowTable<int> table;
  std::vector<int*> pointers;
  for (uint16_t i = 0; i < 1000; ++i) {
    int* v = &table[TestFlow(i, 1)];
    *v = i;
    pointers.push_back(v);
  }
  EXPECT_EQ(table.size(), 1000u);
  for (uint16_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(pointers[i], table.Find(TestFlow(i, 1)));
    EXPECT_EQ(*pointers[i], i);
  }
}

TEST(FlowTableTest, ForEachVisitsInInsertionOrder) {
  FlowTable<int> table;
  for (uint16_t i = 0; i < 100; ++i) {
    table[TestFlow(i, 1)] = i;
  }
  table.Erase(TestFlow(50, 1));
  table[TestFlow(50, 1)] = 500;  // re-insert: moves to the back
  std::vector<int> seen;
  table.ForEach([&](const FiveTuple&, int& v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 100u);
  for (int i = 0; i < 99; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i < 50 ? i : i + 1);
  }
  EXPECT_EQ(seen.back(), 500);
}

TEST(FlowTableTest, EraseDestroysAndReusesStorage) {
  FlowTable<Counted> table;
  for (uint16_t i = 0; i < 10; ++i) {
    table[TestFlow(i, 1)];
  }
  EXPECT_EQ(Counted::live, 10);
  EXPECT_TRUE(table.Erase(TestFlow(3, 1)));
  EXPECT_FALSE(table.Erase(TestFlow(3, 1)));  // already gone
  EXPECT_EQ(Counted::live, 9);
  EXPECT_EQ(table.Find(TestFlow(3, 1)), nullptr);
  // The freed record is reused in place by the next insert.
  table[TestFlow(99, 1)];
  EXPECT_EQ(Counted::live, 10);
  table.Clear();
  EXPECT_EQ(Counted::live, 0);
  EXPECT_TRUE(table.empty());
}

TEST(FlowTableTest, ClearThenReuse) {
  FlowTable<int> table;
  for (uint16_t i = 0; i < 200; ++i) {
    table[TestFlow(i, 1)] = i;
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(TestFlow(5, 1)), nullptr);
  table[TestFlow(5, 1)] = 55;
  EXPECT_EQ(*table.Find(TestFlow(5, 1)), 55);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, ChurnThroughTombstonesKeepsLookupsCorrect) {
  // Insert/erase cycling leaves tombstones; the table must rebuild rather
  // than degrade, and collided keys must stay reachable through them.
  FlowTable<int> table;
  for (int round = 0; round < 50; ++round) {
    for (uint16_t i = 0; i < 64; ++i) {
      table[TestFlow(i, static_cast<uint16_t>(round))] = round * 1000 + i;
    }
    for (uint16_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(table.Erase(TestFlow(i, static_cast<uint16_t>(round))));
    }
  }
  EXPECT_TRUE(table.empty());
  table[TestFlow(7, 7)] = 77;
  EXPECT_EQ(*table.Find(TestFlow(7, 7)), 77);
}

TEST(FlowTableTest, ClockCandidateSecondChance) {
  FlowTable<int> table;
  for (uint16_t i = 0; i < 4; ++i) {
    table[TestFlow(i, 1)] = i;
  }
  // Every entry was just created (referenced). The first sweep clears all
  // bits and wraps; the candidate is the oldest entry.
  const FiveTuple* victim = table.ClockCandidate();
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->src_port, 0u);  // TestFlow(0, 1)
  // A Find() hit re-references entry 1; the hand (still at entry 0) skips it
  // on the next pass and names entry 2... after evicting 0 first.
  table.Find(TestFlow(1, 1));
  ASSERT_TRUE(table.Erase(*victim));
  const FiveTuple* next = table.ClockCandidate();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->src_port, 2u);  // TestFlow(2, 1): entry 1 got its second chance
}

TEST(FlowTableTest, ClockCandidateEmptyAndSingle) {
  FlowTable<int> table;
  EXPECT_EQ(table.ClockCandidate(), nullptr);
  table[TestFlow(1, 1)] = 1;
  const FiveTuple* only = table.ClockCandidate();
  ASSERT_NE(only, nullptr);
  EXPECT_EQ(only->src_port, 1u);
}

TEST(FlowTableTest, CapacityBoundedEvictionLoop) {
  // The usage pattern of a bounded GRO table: evict the clock's candidate
  // before each insert past the cap. The table never exceeds the cap and
  // recently-touched flows survive.
  constexpr size_t kCap = 32;
  FlowTable<int> table;
  for (uint16_t i = 0; i < 500; ++i) {
    if (table.size() >= kCap) {
      const FiveTuple* victim = table.ClockCandidate();
      ASSERT_NE(victim, nullptr);
      ASSERT_TRUE(table.Erase(*victim));
    }
    table[TestFlow(i, 1)] = i;
    EXPECT_LE(table.size(), kCap);
  }
  EXPECT_EQ(table.size(), kCap);
}

TEST(FlowTableTest, ResidentBytesGrowsWithFlowsNotChurn) {
  FlowTable<int> table;
  const size_t empty_bytes = table.resident_bytes();
  for (uint16_t i = 0; i < 1000; ++i) {
    table[TestFlow(i, 1)] = i;
  }
  const size_t full_bytes = table.resident_bytes();
  EXPECT_GT(full_bytes, empty_bytes);
  // Churning the same keys must not grow the footprint further: storage is
  // recycled, not leaked.
  for (int round = 0; round < 5; ++round) {
    for (uint16_t i = 0; i < 1000; ++i) {
      table.Erase(TestFlow(i, 1));
      table[TestFlow(i, 1)] = i;
    }
  }
  EXPECT_EQ(table.resident_bytes(), full_bytes);
}

TEST(FlowTableTest, PrefetchIsSafeForAbsentAndPresentKeys) {
  FlowTable<int> table;
  table.Prefetch(TestFlow(1, 1));  // miss: must not fault or insert
  EXPECT_TRUE(table.empty());
  table[TestFlow(1, 1)] = 7;
  table.Prefetch(TestFlow(1, 1));
  EXPECT_EQ(*table.Find(TestFlow(1, 1)), 7);
}

TEST(FlowTableTest, EraseDuringForEachOfCurrentEntry) {
  FlowTable<int> table;
  for (uint16_t i = 0; i < 20; ++i) {
    table[TestFlow(i, 1)] = i;
  }
  table.ForEach([&](const FiveTuple& key, int& v) {
    if (v % 2 == 0) {
      table.Erase(key);
    }
  });
  EXPECT_EQ(table.size(), 10u);
  std::vector<int> seen;
  table.ForEach([&](const FiveTuple&, int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}));
}

// Overload satellite: a churn flood of never-touched stray flows must not
// push a hot working set out of a capacity-bounded table. Clock is an LRU
// approximation, not exact LRU: the very first sweep finds every bit set,
// clears the whole ring and evicts the hand's starting entry — legitimately
// a hot flow. After that transient the hot set (re-referenced every round,
// faster than the hand revolves) is never touched again; the ~2000 steady-
// state victims are all strays. A GRO engine re-creates an evicted hot flow
// on its next packet, so the test does too, and bounds total hot casualties
// by the transient.
TEST(FlowTableTest, HotSetSurvivesChurnFloodAfterFirstSweepTransient) {
  constexpr size_t kCap = 32;
  constexpr uint16_t kHot = 8;
  FlowTable<int> table;
  for (uint16_t i = 0; i < kHot; ++i) {
    table[TestFlow(i, 1)] = i;
  }
  size_t hot_evictions = 0;
  size_t stray_evictions = 0;
  for (uint16_t stray = 0; stray < 2'000; ++stray) {
    table[TestFlow(stray, 9)] = -1;  // dst_port 9: one packet, never again
    for (uint16_t i = 0; i < kHot; ++i) {
      if (table.Find(TestFlow(i, 1)) == nullptr) {
        table[TestFlow(i, 1)] = i;  // next packet of the hot flow re-creates it
      }
    }
    while (table.size() > kCap) {
      const FiveTuple* victim = table.ClockCandidate();
      ASSERT_NE(victim, nullptr);
      (victim->dst_port == 9 ? stray_evictions : hot_evictions)++;
      ASSERT_TRUE(table.Erase(*victim));
    }
  }
  EXPECT_LE(hot_evictions, kHot) << "hot flows must only fall to the first-sweep transient";
  EXPECT_GE(stray_evictions, 1'900u);
  for (uint16_t i = 0; i < kHot; ++i) {
    EXPECT_NE(table.Find(TestFlow(i, 1)), nullptr) << "hot flow " << i << " missing at end";
  }
}

// Overload satellite: eviction must be deterministic — two tables fed the
// identical operation sequence yield the identical victim sequence. The
// sharded engine's digest invariance rests on this: under brown-out cap
// pressure every shard must pick the same victims at the same points.
TEST(FlowTableTest, VictimOrderIsDeterministicAcrossInstances) {
  auto run = [] {
    FlowTable<int> table;
    std::vector<FiveTuple> victims;
    uint64_t rng = 0x9E3779B97F4A7C15ull;
    for (int op = 0; op < 4'000; ++op) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const uint16_t port = static_cast<uint16_t>((rng >> 33) % 257);
      table[TestFlow(port, 1)] = op;
      if (table.size() > 64) {
        const FiveTuple* victim = table.ClockCandidate();
        victims.push_back(*victim);
        table.Erase(*victim);
      }
    }
    return victims;
  };
  const std::vector<FiveTuple> a = run();
  const std::vector<FiveTuple> b = run();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i] == b[i]) << "victim " << i << " diverged";
  }
}

// Overload satellite: with eviction holding the live count at a bound, the
// table's memory footprint reaches a ceiling and stays there — unbounded
// churn must not translate into unbounded slot-array or slab growth.
TEST(FlowTableTest, ResidentBytesReachCeilingUnderBoundedEviction) {
  constexpr size_t kCap = 128;
  FlowTable<int> table;
  size_t high_water = 0;
  for (uint32_t i = 0; i < 50'000; ++i) {
    table[TestFlow(static_cast<uint16_t>(i & 0xFFFF), static_cast<uint16_t>(i >> 16))] = 1;
    while (table.size() > kCap) {
      const FiveTuple* victim = table.ClockCandidate();
      ASSERT_NE(victim, nullptr);
      ASSERT_TRUE(table.Erase(*victim));
    }
    if (i == 1'000) {
      high_water = table.resident_bytes();  // warmed up: rehash history settled
    }
    if (i > 1'000) {
      ASSERT_LE(table.resident_bytes(), high_water)
          << "footprint grew after warm-up at op " << i;
    }
  }
  EXPECT_EQ(table.size(), kCap);
}

}  // namespace
}  // namespace juggler
