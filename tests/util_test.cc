#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/util/flat_ring.h"
#include "src/util/intrusive_list.h"
#include "src/util/rng.h"
#include "src/util/seq.h"
#include "src/util/time.h"

namespace juggler {
namespace {

// ---- time ----

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Us(15), 15'000);
  EXPECT_EQ(Ms(2), 2'000'000);
  EXPECT_EQ(Sec(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(ToUs(Us(52)), 52.0);
  EXPECT_DOUBLE_EQ(ToSec(Sec(3)), 3.0);
}

TEST(TimeTest, SerializationTimeAt10G) {
  // 1500 bytes at 10Gb/s = 1.2us.
  EXPECT_EQ(SerializationTime(1500, 10 * kGbps), 1200);
}

TEST(TimeTest, SerializationTimeRoundsUp) {
  // 1 byte at 3 Gb/s = 8/3 ns -> 3 ns.
  EXPECT_EQ(SerializationTime(1, 3 * kGbps), 3);
}

TEST(TimeTest, RateBps) {
  EXPECT_DOUBLE_EQ(RateBps(1'250'000'000, Sec(1)), 10e9);
  EXPECT_DOUBLE_EQ(RateBps(100, 0), 0.0);
}

// ---- seq ----

TEST(SeqTest, BasicOrdering) {
  EXPECT_TRUE(SeqBefore(1, 2));
  EXPECT_FALSE(SeqBefore(2, 2));
  EXPECT_TRUE(SeqAfter(3, 2));
  EXPECT_TRUE(SeqBeforeEq(2, 2));
  EXPECT_TRUE(SeqAfterEq(2, 2));
}

TEST(SeqTest, WrapAround) {
  const Seq near_max = 0xfffffff0u;
  const Seq wrapped = 0x10u;
  EXPECT_TRUE(SeqBefore(near_max, wrapped));
  EXPECT_TRUE(SeqAfter(wrapped, near_max));
  EXPECT_EQ(SeqDelta(near_max, wrapped), 0x20);
  EXPECT_EQ(SeqMax(near_max, wrapped), wrapped);
  EXPECT_EQ(SeqMin(near_max, wrapped), near_max);
}

TEST(SeqTest, InRangeAcrossWrap) {
  EXPECT_TRUE(SeqInRange(0x5, 0xfffffff0u, 0x10));
  EXPECT_FALSE(SeqInRange(0x20, 0xfffffff0u, 0x10));
  EXPECT_TRUE(SeqInRange(0xfffffff5u, 0xfffffff0u, 0x10));
}

TEST(SeqTest, DeltaIsSigned) {
  EXPECT_EQ(SeqDelta(10, 4), -6);
  EXPECT_EQ(SeqDelta(4, 10), 6);
}

// ---- rng ----

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkIndependence) {
  Rng a(21);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

// ---- intrusive list ----

struct Item {
  int value = 0;
  IntrusiveListNode list_node;
};

using ItemList = IntrusiveList<Item, &Item::list_node>;

TEST(IntrusiveListTest, PushPopOrder) {
  ItemList list;
  Item a{1, {}}, b{2, {}}, c{3, {}};
  EXPECT_TRUE(list.empty());
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushFront(&c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.front(), &c);
  EXPECT_EQ(list.back(), &b);
  EXPECT_EQ(list.PopFront(), &c);
  EXPECT_EQ(list.PopFront(), &a);
  EXPECT_EQ(list.PopFront(), &b);
  EXPECT_EQ(list.PopFront(), nullptr);
  EXPECT_TRUE(list.empty());
}

TEST(IntrusiveListTest, RemoveMiddle) {
  ItemList list;
  Item a{1, {}}, b{2, {}}, c{3, {}};
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_FALSE(ItemList::IsLinked(&b));
  EXPECT_TRUE(ItemList::IsLinked(&a));
  std::vector<int> order;
  for (Item* item : list) {
    order.push_back(item->value);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(IntrusiveListTest, MoveBetweenLists) {
  ItemList x;
  ItemList y;
  Item a{1, {}};
  x.PushBack(&a);
  x.Remove(&a);
  y.PushBack(&a);
  EXPECT_TRUE(x.empty());
  EXPECT_EQ(y.front(), &a);
}

TEST(IntrusiveListTest, NextOfSupportsRemovalLoop) {
  ItemList list;
  Item items[5];
  for (int i = 0; i < 5; ++i) {
    items[i].value = i;
    list.PushBack(&items[i]);
  }
  // Remove even values while iterating.
  Item* it = list.front();
  while (it != nullptr) {
    Item* next = list.NextOf(it);
    if (it->value % 2 == 0) {
      list.Remove(it);
    }
    it = next;
  }
  std::vector<int> order;
  for (Item* item : list) {
    order.push_back(item->value);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// ---- flat ring ----

// A ring holding `values` whose logical front sits `rotation` slots into a
// buffer of the capacity `values` grows it to, so indexed operations cross
// the buffer's end.
std::unique_ptr<FlatRing<int>> RotatedRing(const std::vector<int>& values, size_t rotation) {
  auto ring = std::make_unique<FlatRing<int>>();
  for (size_t k = 0; k < rotation; ++k) {
    ring->Insert(ring->size()) = -1;
  }
  for (int v : values) {
    ring->Insert(ring->size()) = v;
  }
  for (size_t k = 0; k < rotation; ++k) {
    ring->Erase(0);
  }
  return ring;
}

void ExpectRingEquals(const FlatRing<int>& ring, const std::vector<int>& expected) {
  ASSERT_EQ(ring.size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(ring[k], expected[k]) << "index " << k;
  }
  if (!expected.empty()) {
    EXPECT_EQ(ring.front(), expected.front());
  }
}

TEST(FlatRingTest, EmptyRingOwnsNoHeapAndFitsInThreeWords) {
  FlatRing<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_LE(sizeof(FlatRing<int>), 24u);
  for (int k = 0; k < 5; ++k) {
    ring.Insert(ring.size()) = k;
  }
  EXPECT_EQ(ring.capacity(), 8u);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 8u);  // clear() keeps the buffer
}

TEST(FlatRingTest, InsertAtEveryIndexMatchesVector) {
  // Sizes 0..17 take the ring through capacities 1..32: an insert into a
  // full ring grows it, the others shift the shorter side across the wrap.
  for (size_t n = 0; n <= 17; ++n) {
    for (size_t rotation = 0; rotation <= n + 1; ++rotation) {
      for (size_t i = 0; i <= n; ++i) {
        SCOPED_TRACE("size " + std::to_string(n) + " rotation " + std::to_string(rotation) +
                     " index " + std::to_string(i));
        std::vector<int> expected;
        for (size_t k = 0; k < n; ++k) {
          expected.push_back(static_cast<int>(k));
        }
        auto ring = RotatedRing(expected, rotation);
        ring->Insert(i) = 1000;
        expected.insert(expected.begin() + static_cast<long>(i), 1000);
        ExpectRingEquals(*ring, expected);
      }
    }
  }
}

TEST(FlatRingTest, EraseAtEveryIndexMatchesVector) {
  for (size_t n = 1; n <= 17; ++n) {
    for (size_t rotation = 0; rotation <= n + 1; ++rotation) {
      for (size_t i = 0; i < n; ++i) {
        SCOPED_TRACE("size " + std::to_string(n) + " rotation " + std::to_string(rotation) +
                     " index " + std::to_string(i));
        std::vector<int> expected;
        for (size_t k = 0; k < n; ++k) {
          expected.push_back(static_cast<int>(k));
        }
        auto ring = RotatedRing(expected, rotation);
        ring->Erase(i);
        expected.erase(expected.begin() + static_cast<long>(i));
        ExpectRingEquals(*ring, expected);
        // The slots the shift vacated are reusable at both ends.
        ring->Insert(0) = -2;
        ring->Insert(ring->size()) = -3;
        expected.insert(expected.begin(), -2);
        expected.push_back(-3);
        ExpectRingEquals(*ring, expected);
      }
    }
  }
}

TEST(FlatRingTest, RandomOperationsMatchVector) {
  Rng rng(11);
  FlatRing<int> ring;
  std::vector<int> expected;
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.NextDouble();
    if (expected.empty() || roll < 0.55) {
      const size_t i = rng.NextBounded(expected.size() + 1);
      ring.Insert(i) = step;
      expected.insert(expected.begin() + static_cast<long>(i), step);
    } else if (roll < 0.97) {
      const size_t i = rng.NextBounded(expected.size());
      ring.Erase(i);
      expected.erase(expected.begin() + static_cast<long>(i));
    } else {
      ring.clear();
      expected.clear();
    }
    ASSERT_EQ(ring.size(), expected.size()) << "step " << step;
    for (size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(ring[k], expected[k]) << "step " << step << " index " << k;
    }
  }
}

}  // namespace
}  // namespace juggler
