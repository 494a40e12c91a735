// Unit tests for the utility layer: dynamic bitsets, Tarjan SCC,
// deterministic RNG, and hash helpers.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

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

/// A graph in the CSR form tarjan_scc reads: node v's edges are the ids
/// off[v] .. off[v + 1], edge e ends at target[e].
struct Csr {
  std::vector<std::uint32_t> off{0};
  std::vector<std::uint32_t> target;

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(off.size() - 1);
  }
};

Csr csr(const std::vector<std::vector<std::uint32_t>>& adjacency) {
  Csr g;
  for (const auto& succ : adjacency) {
    g.target.insert(g.target.end(), succ.begin(), succ.end());
    g.off.push_back(static_cast<std::uint32_t>(g.target.size()));
  }
  return g;
}

template <class OnClose = IgnoreScc>
SccResult scc_of(const Csr& g, const DynBitset* alive = nullptr,
                 OnClose&& on_close = {}) {
  return tarjan_scc(
      g.size(), [&](std::uint32_t v) { return g.off[v]; },
      [&](std::uint32_t e) { return g.target[e]; }, alive,
      std::forward<OnClose>(on_close));
}

TEST(Scc, LinearChain) {
  // 0 -> 1 -> 2: three trivial components, reverse topological ids.
  const SccResult r = scc_of(csr({{1}, {2}, {}}));
  EXPECT_EQ(r.count, 3u);
  EXPECT_FALSE(r.nontrivial[r.component[0]]);
  // Reverse topological order: a component reaches only lower ids.
  EXPECT_GT(r.component[0], r.component[1]);
  EXPECT_GT(r.component[1], r.component[2]);
}

TEST(Scc, CycleAndSelfLoop) {
  // 0 <-> 1 form one SCC; 2 has a self-loop; 3 is trivial.
  const SccResult r = scc_of(csr({{1}, {0, 2}, {2}, {}}));
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_NE(r.component[0], r.component[2]);
  EXPECT_TRUE(r.nontrivial[r.component[0]]);
  EXPECT_TRUE(r.nontrivial[r.component[2]]);  // self-loop counts
  EXPECT_FALSE(r.nontrivial[r.component[3]]);
}

TEST(Scc, DisconnectedAndEmpty) {
  EXPECT_EQ(scc_of(csr({})).count, 0u);
  EXPECT_EQ(scc_of(csr({{}, {}})).count, 2u);
}

TEST(Scc, LargeCycleIterative) {
  // Deep structure that would overflow a recursive implementation.
  const std::size_t n = 200000;
  std::vector<std::vector<std::uint32_t>> adjacency(n);
  for (std::size_t i = 0; i < n; ++i) {
    adjacency[i].push_back(static_cast<std::uint32_t>((i + 1) % n));
  }
  const SccResult r = scc_of(csr(adjacency));
  EXPECT_EQ(r.count, 1u);
  EXPECT_TRUE(r.nontrivial[0]);
}

TEST(Scc, MatchesMutualReachabilityOnRandomGraphs) {
  Rng rng(2718);
  for (int i = 0; i < 300; ++i) {
    // Random multigraph: self-loops, parallel edges and isolated nodes all
    // occur at these sizes.
    const auto n = static_cast<std::uint32_t>(rng.next_below(13));
    std::vector<std::vector<std::uint32_t>> adjacency(n);
    const std::uint64_t m = n == 0 ? 0 : rng.next_below(3 * n + 1);
    for (std::uint64_t k = 0; k < m; ++k) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      const auto v = rng.chance(1, 6) ? u
                                      : static_cast<std::uint32_t>(
                                            rng.next_below(n));
      adjacency[u].push_back(v);
      if (rng.chance(1, 8)) adjacency[u].push_back(v);  // parallel edge
    }
    const Csr g = csr(adjacency);
    DynBitset mask(g.target.size());
    for (std::size_t e = 0; e < g.target.size(); ++e) {
      if (rng.chance(2, 3)) mask.set(e);
    }

    for (const DynBitset* alive : {static_cast<const DynBitset*>(nullptr),
                                   static_cast<const DynBitset*>(&mask)}) {
      const auto live_edge = [&](std::uint32_t e) {
        return alive == nullptr || alive->test(e);
      };
      // Reference: reach[u] = nodes reachable from u over live edges, by
      // plain BFS (u reaches itself).
      std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
      for (std::uint32_t u = 0; u < n; ++u) {
        std::vector<std::uint32_t> queue{u};
        reach[u][u] = true;
        for (std::size_t head = 0; head < queue.size(); ++head) {
          const std::uint32_t x = queue[head];
          for (std::uint32_t e = g.off[x]; e < g.off[x + 1]; ++e) {
            if (live_edge(e) && !reach[u][g.target[e]]) {
              reach[u][g.target[e]] = true;
              queue.push_back(g.target[e]);
            }
          }
        }
      }

      std::uint32_t closed = 0;
      const SccResult r = scc_of(
          g, alive,
          [&](std::uint32_t id, std::span<const std::uint32_t> members,
              const SccResult& partial) {
            // Components close in id order, each with exactly its members.
            EXPECT_EQ(id, closed++);
            for (const std::uint32_t v : members) {
              EXPECT_EQ(partial.component[v], id);
            }
          });
      const std::string where = "graph " + std::to_string(i) +
                                (alive ? " masked" : " unmasked");
      ASSERT_EQ(r.component.size(), n) << where;
      ASSERT_EQ(r.nontrivial.size(), r.count) << where;
      EXPECT_EQ(closed, r.count) << where;
      std::vector<bool> used(r.count, false);
      for (std::uint32_t u = 0; u < n; ++u) {
        ASSERT_LT(r.component[u], r.count) << where;
        used[r.component[u]] = true;
        for (std::uint32_t v = 0; v < n; ++v) {
          EXPECT_EQ(r.component[u] == r.component[v],
                    reach[u][v] && reach[v][u])
              << where << ": nodes " << u << ", " << v;
        }
      }
      for (std::uint32_t c = 0; c < r.count; ++c) EXPECT_TRUE(used[c]) << where;

      std::vector<bool> nontrivial(r.count, false);
      for (std::uint32_t u = 0; u < n; ++u) {
        for (std::uint32_t e = g.off[u]; e < g.off[u + 1]; ++e) {
          if (!live_edge(e)) continue;
          const std::uint32_t v = g.target[e];
          // Every live edge goes to an equal or lower component id.
          EXPECT_GE(r.component[u], r.component[v]) << where;
          if (reach[v][u]) nontrivial[r.component[u]] = true;
        }
      }
      for (std::uint32_t c = 0; c < r.count; ++c) {
        EXPECT_EQ(r.nontrivial[c], nontrivial[c])
            << where << ": component " << c;
      }
    }
  }
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
