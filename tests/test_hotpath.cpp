// Hot-path memory architecture tests: the bump arena and interning
// primitives (util/arena.hpp, util/intern.hpp), the CSR transition layout of
// Nfa, deep-witness regressions for the arena-owned path representation, a
// randomized differential suite pitting the interned kernels against a
// reference implementation using the previous memory layout (per-state
// vector-of-bitset tables, copied witness words), and the MemoCache
// hit/coalesced counter split.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "rlv/engine/cache.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/nfa.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/util/arena.hpp"
#include "rlv/util/budget.hpp"
#include "rlv/util/intern.hpp"

namespace rlv {
namespace {

// ---------------------------------------------------------------------------
// Arena.

TEST(Arena, BumpsAlignedPointersWithinChunks) {
  Arena arena(/*first_chunk_bytes=*/128);
  auto* a = static_cast<std::uint8_t*>(arena.allocate(3, 1));
  auto* b = static_cast<std::uint64_t*>(arena.allocate(8, 8));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  *a = 7;
  *b = 0xdeadbeefULL;
  EXPECT_EQ(*a, 7);  // earlier allocation untouched by later ones
  EXPECT_GE(arena.bytes_allocated(), 11u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(Arena, PointersSurviveChunkGrowth) {
  Arena arena(/*first_chunk_bytes=*/64);
  std::vector<int*> ptrs;
  for (int i = 0; i < 1000; ++i) ptrs.push_back(arena.create<int>(i));
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(*ptrs[i], i);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  Arena arena(/*first_chunk_bytes=*/64);
  auto* big = static_cast<std::byte*>(arena.allocate(10000, 8));
  ASSERT_NE(big, nullptr);
  big[9999] = std::byte{1};
  EXPECT_GE(arena.bytes_reserved(), 10000u);
}

TEST(Arena, ResetReclaimsAndReuses) {
  Arena arena(/*first_chunk_bytes=*/64);
  for (std::uint64_t i = 0; i < 1000; ++i) (void)arena.create<std::uint64_t>(i);
  const std::size_t reserved = arena.bytes_reserved();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_LE(arena.bytes_reserved(), reserved);  // keeps only one chunk
  auto* p = arena.create<std::uint64_t>(std::uint64_t{42});
  EXPECT_EQ(*p, 42u);
}

// ---------------------------------------------------------------------------
// Interning.

TEST(TupleInterner, DedupesAndKeepsDenseIds) {
  TupleInterner<std::uint64_t> interner(3);  // a 130-bit set: 3 words
  std::vector<std::uint64_t> w(interner.width(), 0);
  w[0] = 5;
  const auto [id0, fresh0] = interner.intern(w.data());
  EXPECT_TRUE(fresh0);
  EXPECT_EQ(id0, 0u);
  w[2] = 9;
  const auto [id1, fresh1] = interner.intern(w.data());
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(id1, 1u);
  w[2] = 0;
  const auto [id2, fresh2] = interner.intern(w.data());
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(id2, id0);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.at(id0)[0], 5u);
  EXPECT_EQ(interner.at(id1)[2], 9u);
}

TEST(TupleInterner, SurvivesTableGrowth) {
  // Push well past the initial 64 slots to exercise the rehash path.
  TupleInterner<std::uint64_t> interner(1);
  std::vector<std::uint32_t> ids;
  std::uint64_t w = 0;
  for (std::uint32_t i = 0; i < 500; ++i) {
    w = i * 0x9e3779b97f4a7c15ULL + 1;
    ids.push_back(interner.intern(&w).first);
  }
  EXPECT_EQ(interner.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    w = i * 0x9e3779b97f4a7c15ULL + 1;
    EXPECT_EQ(interner.intern(&w).first, ids[i]);  // all found, none fresh
  }
  EXPECT_EQ(interner.size(), 500u);
}

TEST(TupleInterner, InsertContainsGrow) {
  // The 64-bit key set of a visited-set dedup: a width-1 table.
  TupleInterner<std::uint64_t> set(1);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::uint64_t key = k * 1315423911ULL;
    EXPECT_TRUE(set.intern(&key).second);
  }
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::uint64_t key = k * 1315423911ULL;
    EXPECT_FALSE(set.intern(&key).second);
    EXPECT_NE(set.find(&key), TupleInterner<std::uint64_t>::kNoId);
  }
  const std::uint64_t absent = 0xabcdefULL;
  EXPECT_EQ(set.find(&absent), TupleInterner<std::uint64_t>::kNoId);
  EXPECT_EQ(set.size(), 1000u);
}

/// Interns random tuples of one width into a TupleInterner and a std::map
/// reference in lockstep: ids are dense and first-seen, every probe of an
/// unseen tuple misses, and ids survive the table's growth.
template <typename T>
void check_against_map(std::size_t width, std::uint64_t seed) {
  Rng rng(seed);
  TupleInterner<T> interner(width);
  std::map<std::vector<T>, std::uint32_t> reference;
  std::vector<std::vector<T>> by_id;
  std::vector<T> t(width);
  // About a thousand distinct tuples: they repeat often, and the table
  // grows several times past its initial 64 slots.
  const std::uint64_t range = width == 1 ? 1000 : width == 2 ? 32 : 10;
  const auto draw = [&] {
    for (T& x : t) {
      const std::uint64_t v = rng.next_below(range);
      if constexpr (sizeof(T) == 8) {
        x = static_cast<T>(v * 0x9e3779b97f4a7c15ULL);  // all 64 bits
      } else if constexpr (std::is_signed_v<T>) {
        x = static_cast<T>(v) - static_cast<T>(range / 2);  // negatives too
      } else {
        x = static_cast<T>(v);
      }
    }
  };
  for (int step = 0; step < 3000; ++step) {
    draw();
    const auto it = reference.find(t);
    if (it == reference.end()) {
      ASSERT_EQ(interner.find(t.data()), TupleInterner<T>::kNoId);
      const auto [id, fresh] = interner.intern(t.data());
      ASSERT_TRUE(fresh);
      ASSERT_EQ(id, by_id.size());  // dense, first-seen
      reference.emplace(t, id);
      by_id.push_back(t);
    } else {
      ASSERT_EQ(interner.find(t.data()), it->second);
      const auto [id, fresh] = interner.intern(t.data());
      ASSERT_FALSE(fresh);
      ASSERT_EQ(id, it->second);
    }
  }
  ASSERT_EQ(interner.size(), reference.size());
  // After all growth: every id still holds its tuple and maps back to it.
  for (std::uint32_t id = 0; id < by_id.size(); ++id) {
    const T* stored = interner.at(id);
    ASSERT_TRUE(std::equal(by_id[id].begin(), by_id[id].end(), stored));
    ASSERT_EQ(interner.find(by_id[id].data()), id);
  }
}

TEST(TupleInterner, MatchesMapReferenceAcrossWidths) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_against_map<std::uint32_t>(1, seed);
    check_against_map<std::uint32_t>(2, seed);
    check_against_map<std::int32_t>(3, seed);
    // Three 64-bit words: a 130-bit set.
    check_against_map<std::uint64_t>(3, seed);
  }
}

// ---------------------------------------------------------------------------
// CSR transition layout.

TEST(NfaCsr, BlocksPartitionOutEdges) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    auto sigma = random_alphabet(2 + rng.next_below(3));
    const Nfa nfa = random_nfa(rng, 2 + rng.next_below(12), sigma);
    for (State s = 0; s < nfa.num_states(); ++s) {
      std::multiset<std::pair<Symbol, State>> from_out;
      for (const Transition& t : nfa.out(s)) from_out.insert({t.symbol, t.target});
      std::multiset<std::pair<Symbol, State>> from_blocks;
      std::size_t total = 0;
      for (Symbol a = 0; a < sigma->size(); ++a) {
        for (const Transition& t : nfa.block(s, a)) {
          EXPECT_EQ(t.symbol, a);
          from_blocks.insert({t.symbol, t.target});
          ++total;
        }
      }
      EXPECT_EQ(from_out, from_blocks);
      EXPECT_EQ(total, nfa.out(s).size());
    }
  }
}

TEST(NfaCsr, MutationAfterReadReopensIndex) {
  auto sigma = random_alphabet(2);
  Nfa nfa(sigma);
  const State s0 = nfa.add_state(false);
  const State s1 = nfa.add_state(true);
  nfa.set_initial(s0);
  nfa.add_transition(s0, 0, s1);
  EXPECT_EQ(nfa.out(s0).size(), 1u);  // forces the index
  nfa.add_transition(s0, 1, s0);      // reopen + append
  EXPECT_EQ(nfa.num_transitions(), 2u);
  EXPECT_EQ(nfa.out(s0).size(), 2u);
  EXPECT_EQ(nfa.block(s0, 1).size(), 1u);
  // add_transition_unique sees edges in both representations.
  nfa.add_transition_unique(s0, 0, s1);  // duplicate, unindexed path
  EXPECT_EQ(nfa.num_transitions(), 2u);
  (void)nfa.out(s0);                     // re-index
  nfa.add_transition_unique(s0, 0, s1);  // duplicate, indexed path
  EXPECT_EQ(nfa.num_transitions(), 2u);
  const State s2 = nfa.add_state(false);
  nfa.add_transition_unique(s1, 0, s2);  // genuinely new
  EXPECT_EQ(nfa.num_transitions(), 3u);
  EXPECT_TRUE(nfa.accepts({0}));
}

TEST(NfaCsr, StepAndStepWordsMatchEdgeScan) {
  Rng rng(11);
  for (int round = 0; round < 30; ++round) {
    auto sigma = random_alphabet(2 + rng.next_below(3));
    const Nfa nfa = random_nfa(rng, 2 + rng.next_below(70), sigma);
    // Random source set.
    DynBitset src(nfa.num_states());
    for (State s = 0; s < nfa.num_states(); ++s) {
      if (rng.chance(1, 3)) src.set(s);
    }
    for (Symbol a = 0; a < sigma->size(); ++a) {
      // Reference: scan every edge of every source state.
      DynBitset expected(nfa.num_states());
      src.for_each([&](std::size_t s) {
        for (const Transition& t : nfa.out(static_cast<State>(s))) {
          if (t.symbol == a) expected.set(t.target);
        }
      });
      EXPECT_EQ(nfa.step(src, a), expected);
      std::vector<std::uint64_t> dst(src.num_words(), ~0ULL);  // dirty
      nfa.step_words(src.words_data(), a, dst.data());
      EXPECT_EQ(DynBitset::from_words(nfa.num_states(), dst.data()), expected);
    }
  }
}

TEST(NfaCsr, CopyAndMovePreserveIndexedAutomaton) {
  Rng rng(13);
  auto sigma = random_alphabet(3);
  const Nfa original = random_nfa(rng, 10, sigma);
  original.finalize();
  Nfa copy = original;
  EXPECT_EQ(copy.num_transitions(), original.num_transitions());
  EXPECT_EQ(copy.to_string(), original.to_string());
  Nfa moved = std::move(copy);
  EXPECT_EQ(moved.to_string(), original.to_string());
  moved.add_transition(0, 0, 0);  // reopen on the moved-to object
  EXPECT_EQ(moved.num_transitions(), original.num_transitions() + 1);
}

// ---------------------------------------------------------------------------
// Deep witnesses: counterexamples hundreds of thousands of symbols long.
// The regression here is twofold: witness teardown must not recurse (the
// previous shared_ptr parent chain overflowed the stack on destruction),
// and the search must not copy the word into every queued configuration.

constexpr std::size_t kDeepChain = 200000;

/// L(a) = { 0^kDeepChain }, L(b) = ∅ (b: one non-accepting sink with a
/// self-loop, so right-hand sets stay one word wide).
std::pair<Nfa, Nfa> deep_chain_instance(const AlphabetRef& sigma) {
  Nfa a(sigma);
  State prev = a.add_state(false);
  a.set_initial(prev);
  for (std::size_t i = 0; i < kDeepChain; ++i) {
    const State next = a.add_state(i + 1 == kDeepChain);
    a.add_transition(prev, 0, next);
    prev = next;
  }
  Nfa b(sigma);
  const State sink = b.add_state(false);
  b.set_initial(sink);
  b.add_transition(sink, 0, sink);
  return {std::move(a), std::move(b)};
}

TEST(DeepWitness, SequentialSubsetAndAntichain) {
  auto sigma = random_alphabet(1);
  const auto [a, b] = deep_chain_instance(sigma);
  for (const auto algorithm :
       {InclusionAlgorithm::kSubset, InclusionAlgorithm::kAntichain}) {
    const InclusionResult r = check_inclusion(a, b, algorithm);
    EXPECT_FALSE(r.included);
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_EQ(r.counterexample->size(), kDeepChain);
  }
}

// ---------------------------------------------------------------------------
// Differential suite: the interned kernels against a reference inclusion
// using the previous memory layout — per-left-state vectors of owned
// DynBitsets and witness words copied into every configuration. Boolean
// verdicts must match exactly; counterexample words are revalidated, not
// compared (antichain pruning and CSR edge order legitimately change which
// witness is found).

InclusionResult reference_inclusion(const Nfa& a, const Nfa& b,
                                    bool use_antichain) {
  struct Cfg {
    State left;
    DynBitset right;
    Word word;
  };
  DynBitset b_init(b.num_states());
  for (const State s : b.initial()) b_init.set(s);

  std::unordered_map<State, std::vector<DynBitset>> seen;
  auto insert = [&](State left, const DynBitset& right) {
    std::vector<DynBitset>& chain = seen[left];
    if (use_antichain) {
      for (const DynBitset& e : chain) {
        if (e.is_subset_of(right)) return false;
      }
      std::erase_if(chain,
                    [&](const DynBitset& e) { return right.is_subset_of(e); });
    } else if (std::find(chain.begin(), chain.end(), right) != chain.end()) {
      return false;
    }
    chain.push_back(right);
    return true;
  };

  std::deque<Cfg> queue;
  for (const State s : a.initial()) {
    if (insert(s, b_init)) queue.push_back({s, b_init, {}});
  }
  while (!queue.empty()) {
    Cfg cfg = std::move(queue.front());
    queue.pop_front();
    const bool b_accepts = cfg.right.any_of(
        [&](std::size_t s) { return b.is_accepting(static_cast<State>(s)); });
    if (a.is_accepting(cfg.left) && !b_accepts) {
      return {false, std::move(cfg.word)};
    }
    for (const Transition& t : a.out(cfg.left)) {
      DynBitset next_right = b.step(cfg.right, t.symbol);
      if (!insert(t.target, next_right)) continue;
      Word next_word = cfg.word;
      next_word.push_back(t.symbol);
      queue.push_back({t.target, std::move(next_right), std::move(next_word)});
    }
  }
  return {true, std::nullopt};
}

TEST(Differential, InclusionKernelsMatchReferenceLayout) {
  Rng rng(20260808);
  int non_included = 0;
  for (int round = 0; round < 120; ++round) {
    auto sigma = random_alphabet(2 + rng.next_below(2));
    const Nfa a = random_nfa(rng, 2 + rng.next_below(6), sigma);
    const Nfa b = random_nfa(rng, 2 + rng.next_below(5), sigma);

    const InclusionResult expected = reference_inclusion(a, b, false);
    for (const auto algorithm :
         {InclusionAlgorithm::kSubset, InclusionAlgorithm::kAntichain}) {
      const InclusionResult got = check_inclusion(a, b, algorithm);
      ASSERT_EQ(got.included, expected.included)
          << "round " << round << " algorithm "
          << (algorithm == InclusionAlgorithm::kSubset ? "subset"
                                                       : "antichain");
      if (!got.included) {
        ASSERT_TRUE(got.counterexample.has_value());
        EXPECT_TRUE(a.accepts(*got.counterexample));
        EXPECT_FALSE(b.accepts(*got.counterexample));
      }
    }
    // The subset search is BFS over every configuration, so its witness is
    // shortest; it must match the reference's length exactly.
    if (!expected.included) {
      ++non_included;
      const InclusionResult subset = check_inclusion(a, b, InclusionAlgorithm::kSubset);
      ASSERT_TRUE(subset.counterexample.has_value());
      EXPECT_EQ(subset.counterexample->size(), expected.counterexample->size());
    }
  }
  EXPECT_GT(non_included, 10);  // the suite must exercise both verdicts
}

TEST(Differential, LazyProductMatchesMaterializedIntersection) {
  Rng rng(424242);
  int nonempty = 0;
  for (int round = 0; round < 60; ++round) {
    auto sigma = random_alphabet(2);
    const Buchi a = random_buchi(rng, 2 + rng.next_below(5), sigma);
    const Buchi b = random_buchi(rng, 2 + rng.next_below(5), sigma);
    const auto lasso = find_accepting_lasso_product({&a, &b});
    const bool materialized = omega_empty(intersect_buchi(a, b));
    ASSERT_EQ(!lasso.has_value(), materialized) << "round " << round;
    if (lasso) ++nonempty;
  }
  EXPECT_GT(nonempty, 5);
}

TEST(Differential, DeterminizeMatchesNfaOnRandomWords) {
  Rng rng(777);
  for (int round = 0; round < 40; ++round) {
    auto sigma = random_alphabet(2 + rng.next_below(2));
    const Nfa nfa = random_nfa(rng, 2 + rng.next_below(7), sigma);
    const Dfa dfa = determinize(nfa);
    for (int w = 0; w < 40; ++w) {
      Word word(rng.next_below(8));
      for (Symbol& s : word) {
        s = static_cast<Symbol>(rng.next_below(sigma->size()));
      }
      EXPECT_EQ(dfa.accepts(word), nfa.accepts(word)) << "round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Budget memory observability.

TEST(BudgetMemory, InclusionReportsKernelBytes) {
  Rng rng(5);
  auto sigma = random_alphabet(3);
  const Nfa a = random_nfa(rng, 24, sigma);
  const Nfa b = random_nfa(rng, 16, sigma);
  Budget budget;
  (void)check_inclusion(a, b, InclusionAlgorithm::kAntichain, &budget);
  const StageMetrics& m = budget.profile()[Stage::kInclusion];
  EXPECT_GT(m.peak_memory_bytes, 0u);
}

TEST(BudgetMemory, LazyProductReportsKernelBytes) {
  // The interned tuples, the flat successor array and the ranges all count.
  Rng rng(6);
  auto sigma = random_alphabet(2);
  const Buchi a = random_buchi(rng, 40, sigma);
  const Buchi b = random_buchi(rng, 40, sigma);
  Budget budget;
  (void)find_accepting_lasso_product({&a, &b}, &budget);
  const StageMetrics& m = budget.profile()[Stage::kEmptiness];
  ASSERT_GT(m.states_built, 0u);
  // At least one tuple of three 4-byte elements per interned state.
  EXPECT_GE(m.peak_memory_bytes, m.states_built * 3 * sizeof(State));
}

// ---------------------------------------------------------------------------
// MemoCache: hit vs coalesced split.

TEST(MemoCacheCoalesced, ResidentLookupsAreHits) {
  MemoCache<int, int> cache(8);
  (void)cache.get_or_compute(1, [] { return 10; });
  (void)cache.get_or_compute(1, [] { return 10; });
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.coalesced, 0u);
}

TEST(MemoCacheCoalesced, InFlightLookupsCountSeparately) {
  MemoCache<int, int> cache(8);
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();

  std::thread winner([&] {
    (void)cache.get_or_compute(1, [&] {
      entered.set_value();
      release_future.wait();
      return 99;
    });
  });
  entered.get_future().wait();  // the computation is now in flight

  std::thread waiter([&] {
    auto value = cache.get_or_compute(1, [] { return -1; });
    EXPECT_EQ(*value, 99);
  });
  // The waiter must reach the in-flight entry before we release the winner;
  // poll the counter (it is bumped under the cache lock during lookup).
  while (cache.counters().coalesced == 0) std::this_thread::yield();
  release.set_value();
  winner.join();
  waiter.join();

  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.coalesced, 1u);
  EXPECT_EQ(c.hits, 0u);

  (void)cache.get_or_compute(1, [] { return -1; });
  EXPECT_EQ(cache.counters().hits, 1u);
}

}  // namespace
}  // namespace rlv
