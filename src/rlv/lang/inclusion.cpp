#include "rlv/lang/inclusion.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <type_traits>
#include <vector>

#include "rlv/util/arena.hpp"
#include "rlv/util/intern.hpp"

namespace rlv {

namespace {

/// Reverse-linked witness path through the explored configuration graph.
/// Siblings share their parent's tail, so total witness memory is one small
/// node per explored configuration. Nodes live in the search's bump arena
/// and carry raw parent pointers: teardown is a wholesale arena free, so a
/// counterexample hundreds of thousands of symbols deep cannot overflow the
/// stack the way a recursively-destructed shared_ptr chain did.
struct PathNode {
  Symbol symbol;
  const PathNode* parent;
};
static_assert(std::is_trivially_destructible_v<PathNode>);

const PathNode* extend(Arena& arena, const PathNode* parent, Symbol symbol) {
  return arena.create<PathNode>(symbol, parent);
}

Word backtrace(const PathNode* tip) {
  Word w;
  for (const PathNode* n = tip; n != nullptr; n = n->parent) {
    w.push_back(n->symbol);
  }
  std::reverse(w.begin(), w.end());
  return w;
}

/// Explored configuration of the sequential kernels: a left-hand NFA state
/// paired with the interned id of the right-hand subset. 16 bytes, no owned
/// heap payload — the previous representation carried a DynBitset (own
/// allocation) and a shared_ptr per queued configuration.
struct SeqConfig {
  State left;
  std::uint32_t right;
  const PathNode* path;
};

/// Shared allocation/stepping state of the sequential kernels. Right-hand
/// subsets live interned in one contiguous word array; the two scratch
/// buffers (`cur`, `nxt`) are the only per-step storage, reused for the
/// whole search. Everything is freed wholesale when the search returns —
/// including on a budget throw.
class SeqContext {
 public:
  SeqContext(const Nfa& b, Budget* budget)
      : b_(b), budget_(budget), interner_((b.num_states() + 63) / 64) {
    const DynBitset acc = b.accepting_set();
    acc_words_.assign(acc.words_data(), acc.words_data() + acc.num_words());
    cur_.assign(interner_.width(), 0);
    nxt_.assign(interner_.width(), 0);
  }

  Arena& arena() { return arena_; }
  TupleInterner<std::uint64_t>& interner() { return interner_; }

  /// Interns the right-hand initial subset and returns its id.
  std::uint32_t intern_initial() {
    std::fill(nxt_.begin(), nxt_.end(), 0);
    for (const State s : b_.initial()) {
      nxt_[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
    return interner_.intern(nxt_.data()).first;
  }

  /// Copies the interned set `id` into the step source buffer. Interned
  /// word pointers are invalidated by the next intern, so every popped
  /// configuration is staged here before its successors are computed.
  void load(std::uint32_t id) {
    const std::uint64_t* w = interner_.at(id);
    std::copy(w, w + interner_.width(), cur_.begin());
  }

  [[nodiscard]] bool cur_accepts() const {
    for (std::size_t i = 0; i < acc_words_.size(); ++i) {
      if ((cur_[i] & acc_words_[i]) != 0) return true;
    }
    return false;
  }

  /// Steps the staged subset by `symbol` and interns the successor set.
  std::uint32_t step_and_intern(Symbol symbol) {
    b_.step_words(cur_.data(), symbol, nxt_.data());
    return interner_.intern(nxt_.data()).first;
  }

  [[nodiscard]] const std::uint64_t* next_words() const { return nxt_.data(); }

  /// Budget charge for one newly recorded configuration, plus the memory
  /// observation (arena chunks + intern storage + the caller's own tables).
  void charge(std::size_t extra_bytes) {
    budget_charge(budget_);
    budget_note_memory(budget_, arena_.bytes_reserved() + interner_.bytes() +
                                    extra_bytes);
  }

 private:
  const Nfa& b_;
  Budget* budget_;
  Arena arena_;
  TupleInterner<std::uint64_t> interner_;
  std::vector<std::uint64_t> acc_words_;
  std::vector<std::uint64_t> cur_;
  std::vector<std::uint64_t> nxt_;
};

InclusionResult subset_inclusion(const Nfa& a, const Nfa& b, Budget* budget) {
  SeqContext ctx(b, budget);
  // Visited configurations as (left state, right-set id) pairs.
  TupleInterner<std::uint32_t> seen(2);

  auto record = [&](State left, std::uint32_t right_id) {
    const std::uint32_t config[2] = {left, right_id};
    if (!seen.intern(config).second) return false;
    ctx.charge(seen.bytes());
    budget_note_frontier(budget, seen.size());
    return true;
  };

  std::deque<SeqConfig> queue;
  const std::uint32_t init_id = ctx.intern_initial();
  for (const State s : a.initial()) {
    if (record(s, init_id)) queue.push_back({s, init_id, nullptr});
  }
  while (!queue.empty()) {
    const SeqConfig cfg = queue.front();
    queue.pop_front();
    ctx.load(cfg.right);
    if (a.is_accepting(cfg.left) && !ctx.cur_accepts()) {
      return {false, backtrace(cfg.path)};
    }
    // Out-edges arrive grouped by symbol (CSR), so the subset step — the
    // expensive part — runs once per distinct symbol, not once per edge.
    const std::span<const Transition> edges = a.out(cfg.left);
    for (std::size_t i = 0; i < edges.size();) {
      const Symbol sym = edges[i].symbol;
      const std::uint32_t next_id = ctx.step_and_intern(sym);
      const PathNode* path = nullptr;
      for (; i < edges.size() && edges[i].symbol == sym; ++i) {
        if (!record(edges[i].target, next_id)) continue;
        if (path == nullptr) path = extend(ctx.arena(), cfg.path, sym);
        queue.push_back({edges[i].target, next_id, path});
      }
    }
  }
  return {true, std::nullopt};
}

/// Antichain variant: a pair (p, S) is subsumed by (p, S') with S' ⊆ S,
/// because any counterexample reachable from (p, S) is also reachable from
/// (p, S') (a smaller right-hand set rejects more words).
InclusionResult antichain_inclusion(const Nfa& a, const Nfa& b,
                                    Budget* budget) {
  SeqContext ctx(b, budget);
  TupleInterner<std::uint64_t>& interner = ctx.interner();
  const std::size_t words_per = interner.width();

  // Antichain of ⊆-minimal right-hand sets, per left-hand state. Subsumption
  // probes compare the candidate's scratch words against interned blocks;
  // the candidate is interned only when it actually enters the antichain.
  //
  // Every insertion queues exactly one configuration and the queue is FIFO,
  // so the configuration of the k-th insertion sits at queue[k - popped]
  // until it is popped. When a later, smaller set erases an element whose
  // configuration is still queued, that configuration is marked stale and
  // skipped when popped: the subsuming configuration reaches every
  // counterexample it would.
  struct Element {
    std::uint32_t right;  // interned right-hand set
    std::uint64_t seq;    // insertion number of its queued configuration
  };
  std::vector<std::vector<Element>> antichain(a.num_states());
  std::deque<SeqConfig> queue;
  std::uint64_t inserted = 0;
  std::uint64_t popped = 0;
  std::size_t antichain_total = 0;
  std::size_t chain_bytes = 0;
  constexpr State kStale = ~State{0};

#ifndef NDEBUG
  // Frontier-accounting audit: the running counter must equal the true
  // total antichain size after every mutation (no underflow or drift when
  // one insertion subsumes several existing elements).
  auto debug_recount = [&] {
    std::size_t total = 0;
    for (const auto& chain : antichain) total += chain.size();
    return total;
  };
#endif

  // Returns kNoId when the candidate in ctx's next buffer is subsumed by an
  // existing element; otherwise inserts it (dropping, and marking stale, the
  // elements it subsumes) and returns its interned id.
  auto insert = [&](State left) -> std::uint32_t {
    std::vector<Element>& chain = antichain[left];
    const std::uint64_t* w = ctx.next_words();
    auto subset_of_w = [&](const Element& e) {
      const std::uint64_t* ew = interner.at(e.right);
      for (std::size_t i = 0; i < words_per; ++i) {
        if ((ew[i] & ~w[i]) != 0) return false;
      }
      return true;
    };
    auto superset_of_w = [&](const Element& e) {
      const std::uint64_t* ew = interner.at(e.right);
      for (std::size_t i = 0; i < words_per; ++i) {
        if ((w[i] & ~ew[i]) != 0) return false;
      }
      if (e.seq >= popped) queue[e.seq - popped].left = kStale;
      return true;
    };
    for (const Element& e : chain) {
      if (subset_of_w(e)) return IdTable::kNoId;
    }
    const std::size_t before = chain.size();
    std::erase_if(chain, superset_of_w);
    const std::size_t erased = before - chain.size();
    assert(erased <= antichain_total);
    antichain_total -= erased;
    const std::uint32_t id = interner.intern(w).first;
    chain.push_back({id, inserted++});
    chain_bytes += sizeof(Element);
    ctx.charge(chain_bytes);
    budget_note_frontier(budget, ++antichain_total);
    assert(antichain_total == debug_recount());
    return id;
  };

  // intern_initial leaves the initial subset staged in the probe buffer, and
  // insert() only reads it, so the initial states all probe the same words.
  const std::uint32_t init_id = ctx.intern_initial();
  for (const State s : a.initial()) {
    if (insert(s) != IdTable::kNoId) queue.push_back({s, init_id, nullptr});
  }
  while (!queue.empty()) {
    const SeqConfig cfg = queue.front();
    queue.pop_front();
    ++popped;
    if (cfg.left == kStale) continue;  // subsumed after it was queued
    ctx.load(cfg.right);
    if (a.is_accepting(cfg.left) && !ctx.cur_accepts()) {
      return {false, backtrace(cfg.path)};
    }
    // Out-edges arrive grouped by symbol (CSR): one subset step per distinct
    // symbol, then one antichain probe per target against the staged words.
    const std::span<const Transition> edges = a.out(cfg.left);
    for (std::size_t i = 0; i < edges.size();) {
      const Symbol sym = edges[i].symbol;
      const std::uint32_t next_id = ctx.step_and_intern(sym);
      const PathNode* path = nullptr;
      for (; i < edges.size() && edges[i].symbol == sym; ++i) {
        if (insert(edges[i].target) == IdTable::kNoId) continue;
        if (path == nullptr) path = extend(ctx.arena(), cfg.path, sym);
        queue.push_back({edges[i].target, next_id, path});
      }
    }
  }
  return {true, std::nullopt};
}

}  // namespace

InclusionResult check_inclusion(const Nfa& a, const Nfa& b,
                                InclusionAlgorithm algorithm, Budget* budget) {
  require_same_alphabet(a.alphabet(), b.alphabet(), "check_inclusion");
  StageScope scope(budget, Stage::kInclusion);
  // Build both CSR transition indexes before the search, so the lazy build
  // never runs inside the hot loop.
  a.finalize();
  b.finalize();
  switch (algorithm) {
    case InclusionAlgorithm::kSubset:
      return subset_inclusion(a, b, budget);
    case InclusionAlgorithm::kAntichain:
      return antichain_inclusion(a, b, budget);
  }
  return {true, std::nullopt};  // unreachable
}

bool is_included(const Nfa& a, const Nfa& b, InclusionAlgorithm algorithm,
                 Budget* budget) {
  return check_inclusion(a, b, algorithm, budget).included;
}

bool nfa_equivalent(const Nfa& a, const Nfa& b, InclusionAlgorithm algorithm,
                    Budget* budget) {
  return is_included(a, b, algorithm, budget) &&
         is_included(b, a, algorithm, budget);
}

}  // namespace rlv
