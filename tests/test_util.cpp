// Unit tests for the utility layer: dynamic bitsets, Tarjan SCC,
// deterministic RNG, and hash helpers.

#include <gtest/gtest.h>

#include <set>

#include "rlv/util/bitset.hpp"
#include "rlv/util/hash.hpp"
#include "rlv/util/rng.hpp"
#include "rlv/util/scc.hpp"

namespace rlv {
namespace {

TEST(DynBitset, SetResetTest) {
  DynBitset b(130);  // spans three words
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
  b.assign(5, true);
  EXPECT_TRUE(b.test(5));
  b.assign(5, false);
  EXPECT_FALSE(b.test(5));
  b.clear();
  EXPECT_TRUE(b.none());
}

TEST(DynBitset, BooleanOps) {
  DynBitset a(100);
  DynBitset b(100);
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(99);

  DynBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);

  DynBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(70));

  DynBitset d = a;
  d -= b;
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(3));

  EXPECT_TRUE(i.is_subset_of(a));
  EXPECT_TRUE(i.is_subset_of(b));
  EXPECT_FALSE(a.is_subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  DynBitset empty(100);
  EXPECT_FALSE(empty.intersects(a));
  EXPECT_TRUE(empty.is_subset_of(a));
}

TEST(DynBitset, ForEachAndFirst) {
  DynBitset b(200);
  const std::set<std::size_t> expected = {0, 63, 64, 127, 128, 199};
  for (const std::size_t i : expected) b.set(i);
  std::set<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.insert(i); });
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(b.first(), 0u);
  b.reset(0);
  EXPECT_EQ(b.first(), 63u);
  DynBitset empty(10);
  EXPECT_EQ(empty.first(), 10u);
}

TEST(DynBitset, EqualityAndHash) {
  DynBitset a(64);
  DynBitset b(64);
  EXPECT_EQ(a, b);
  a.set(13);
  EXPECT_NE(a.hash(), b.hash());  // overwhelmingly likely
  b.set(13);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  // Different sizes are never equal.
  EXPECT_FALSE(DynBitset(3) == DynBitset(4));
}

TEST(Scc, LinearChain) {
  // 0 -> 1 -> 2: three trivial components, reverse topological ids.
  const std::vector<std::vector<std::uint32_t>> g = {{1}, {2}, {}};
  const SccResult r = tarjan_scc(g);
  EXPECT_EQ(r.count, 3u);
  EXPECT_FALSE(r.nontrivial[r.component[0]]);
  // Reverse topological order: a component reaches only lower ids.
  EXPECT_GT(r.component[0], r.component[1]);
  EXPECT_GT(r.component[1], r.component[2]);
}

TEST(Scc, CycleAndSelfLoop) {
  // 0 <-> 1 form one SCC; 2 has a self-loop; 3 is trivial.
  const std::vector<std::vector<std::uint32_t>> g = {{1}, {0, 2}, {2}, {}};
  const SccResult r = tarjan_scc(g);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_NE(r.component[0], r.component[2]);
  EXPECT_TRUE(r.nontrivial[r.component[0]]);
  EXPECT_TRUE(r.nontrivial[r.component[2]]);  // self-loop counts
  EXPECT_FALSE(r.nontrivial[r.component[3]]);
}

TEST(Scc, DisconnectedAndEmpty) {
  EXPECT_EQ(tarjan_scc({}).count, 0u);
  const std::vector<std::vector<std::uint32_t>> g = {{}, {}};
  EXPECT_EQ(tarjan_scc(g).count, 2u);
}

TEST(Scc, LargeCycleIterative) {
  // Deep structure that would overflow a recursive implementation.
  const std::size_t n = 200000;
  std::vector<std::vector<std::uint32_t>> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i].push_back(static_cast<std::uint32_t>((i + 1) % n));
  }
  const SccResult r = tarjan_scc(g);
  EXPECT_EQ(r.count, 1u);
  EXPECT_TRUE(r.nontrivial[0]);
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Rng c(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(c.next_below(17), 17u);
    const double d = c.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  // chance(1, 1) is always true; chance(0, n) always false.
  EXPECT_TRUE(c.chance(1, 1));
  EXPECT_FALSE(c.chance(0, 5));
}

TEST(Rng, RoughUniformity) {
  Rng rng(99);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.next_below(10)];
  }
  for (const int count : buckets) {
    EXPECT_GT(count, kDraws / 10 - kDraws / 50);
    EXPECT_LT(count, kDraws / 10 + kDraws / 50);
  }
}

TEST(Hash, CombineSpreadsPairs) {
  std::set<std::size_t> values;
  for (std::size_t a = 0; a < 30; ++a) {
    for (std::size_t b = 0; b < 30; ++b) {
      values.insert(hash_combine(hash_combine(0, a), b));
    }
  }
  EXPECT_EQ(values.size(), 900u);  // no collisions on this tiny grid
}

}  // namespace
}  // namespace rlv
