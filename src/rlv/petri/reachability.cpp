#include "rlv/petri/reachability.hpp"

#include <cassert>
#include <deque>

#include "rlv/util/intern.hpp"

namespace rlv {

namespace {

/// Marking store with two phases. Phase one interns 1-safe markings as
/// packed bitsets; the first marking that needs ≥ 2 tokens on a place
/// converts every stored bitset to a token-count row (dense ids are handed
/// out in first-seen order by both phases, so ids survive the conversion
/// and exploration continues without a restart).
class MarkingStore {
 public:
  explicit MarkingStore(std::size_t num_places)
      : places_(num_places),
        words_per_((num_places + 63) / 64),
        bitsets_(words_per_),
        rows_(num_places) {}

  [[nodiscard]] bool one_safe() const { return safe_; }
  [[nodiscard]] std::size_t size() const {
    return safe_ ? bitsets_.size() : rows_.size();
  }
  [[nodiscard]] std::size_t bytes() const {
    return safe_ ? bitsets_.bytes() : rows_.bytes();
  }

  /// Finds `m`, or kNoId when it was never interned.
  [[nodiscard]] std::uint32_t find(const Marking& m) {
    if (safe_) {
      // A non-1-safe marking cannot be in the bitset store: never seen.
      if (!pack(m)) return IdTable::kNoId;
      return bitsets_.find(scratch_.data());
    }
    return rows_.find(m.data());
  }

  /// Interns `m`; returns (id, fresh).
  std::pair<std::uint32_t, bool> intern(const Marking& m) {
    if (safe_) {
      if (pack(m)) return bitsets_.intern(scratch_.data());
      convert();
    }
    return rows_.intern(m.data());
  }

  /// Copies the marking of `id` into `out` (resized to places()).
  void decode(std::uint32_t id, Marking& out) const {
    out.assign(places_, 0);
    if (safe_) {
      const std::uint64_t* w = bitsets_.at(id);
      for (std::size_t p = 0; p < places_; ++p) {
        out[p] = (w[p / 64] >> (p % 64)) & 1u;
      }
    } else {
      const std::uint32_t* row = rows_.at(id);
      for (std::size_t p = 0; p < places_; ++p) out[p] = row[p];
    }
  }

  /// Copies the backing storage into the finished graph.
  void release(ReachabilityGraph& graph) const {
    graph.one_safe = safe_;
    if (safe_) {
      const std::uint64_t* w = bitsets_.at(0);
      graph.marking_bits.assign(w, w + size() * words_per_);
    } else {
      const std::uint32_t* row = rows_.at(0);
      graph.marking_counts.assign(row, row + size() * places_);
    }
  }

 private:
  /// Packs `m` into scratch_; false when some place holds ≥ 2 tokens.
  bool pack(const Marking& m) {
    scratch_.assign(words_per_, 0);
    for (std::size_t p = 0; p < places_; ++p) {
      if (m[p] > 1) return false;
      if (m[p]) scratch_[p / 64] |= std::uint64_t{1} << (p % 64);
    }
    return true;
  }

  /// Expands every interned bitset into a count row, interned in id order,
  /// so ids are preserved.
  void convert() {
    Marking row;
    for (std::size_t id = 0; id < bitsets_.size(); ++id) {
      decode(static_cast<std::uint32_t>(id), row);
      rows_.intern(row.data());
    }
    safe_ = false;
    bitsets_ = TupleInterner<std::uint64_t>(0);  // release the bitset storage
  }

  std::size_t places_;
  std::size_t words_per_;
  bool safe_ = true;
  TupleInterner<std::uint64_t> bitsets_;
  std::vector<std::uint64_t> scratch_;
  // General phase: token-count rows of width places_.
  TupleInterner<std::uint32_t> rows_;
};

}  // namespace

Marking ReachabilityGraph::marking(State s) const {
  Marking m(num_places, 0);
  if (one_safe) {
    const std::size_t words_per = (num_places + 63) / 64;
    const std::uint64_t* w = marking_bits.data() + std::size_t{s} * words_per;
    for (std::size_t p = 0; p < num_places; ++p) {
      m[p] = (w[p / 64] >> (p % 64)) & 1u;
    }
  } else {
    const std::uint32_t* row =
        marking_counts.data() + std::size_t{s} * num_places;
    for (std::size_t p = 0; p < num_places; ++p) m[p] = row[p];
  }
  return m;
}

std::uint32_t ReachabilityGraph::tokens(State s, PlaceId p) const {
  assert(p < num_places);
  if (one_safe) {
    const std::size_t words_per = (num_places + 63) / 64;
    return (marking_bits[std::size_t{s} * words_per + p / 64] >> (p % 64)) & 1u;
  }
  return marking_counts[std::size_t{s} * num_places + p];
}

ReachabilityGraph build_reachability_graph(const PetriNet& net,
                                           const ReachabilityOptions& options,
                                           Budget* budget) {
  StageScope scope(budget, Stage::kPetriUnfold);

  auto sigma = std::make_shared<Alphabet>();
  std::vector<Symbol> label_symbol(net.num_transitions());
  for (TransId t = 0; t < net.num_transitions(); ++t) {
    label_symbol[t] = sigma->intern(net.label(t));
  }

  ReachabilityGraph graph{Nfa(sigma), {}, true, true, net.num_places(), {}, {}};

  MarkingStore store(net.num_places());
  std::deque<std::uint32_t> worklist;

  const auto intern = [&](const Marking& m) -> std::uint32_t {
    if (store.size() >= options.max_states) {
      // Soft cap: known markings still resolve, fresh ones truncate.
      const std::uint32_t found = store.find(m);
      if (found == IdTable::kNoId) graph.complete = false;
      return found;
    }
    const auto [id, fresh] = store.intern(m);
    if (fresh) {
      const State s = graph.system.add_state(true);
      assert(s == id);
      (void)s;
      worklist.push_back(id);
      budget_charge(budget);
      if ((id & 0x3ff) == 0) budget_note_memory(budget, store.bytes());
    }
    return id;
  };

  const std::uint32_t initial = intern(net.initial_marking());
  if (initial != IdTable::kNoId) graph.system.set_initial(initial);

  Marking current;
  Marking next;
  while (!worklist.empty()) {
    const std::uint32_t from = worklist.front();
    worklist.pop_front();
    budget_note_frontier(budget, worklist.size() + 1);
    store.decode(from, current);
    bool any_enabled = false;
    for (TransId t = 0; t < net.num_transitions(); ++t) {
      if (!net.enabled(t, current)) continue;
      any_enabled = true;
      next = current;
      for (const PetriNet::Arc& arc : net.inputs(t)) {
        next[arc.place] -= arc.weight;
      }
      for (const PetriNet::Arc& arc : net.outputs(t)) {
        next[arc.place] += arc.weight;
      }
      const std::uint32_t to = intern(next);
      if (to == IdTable::kNoId) continue;  // soft state cap hit
      graph.system.add_transition(from, label_symbol[t], to);
    }
    if (!any_enabled) graph.deadlocks.push_back(from);
    budget_tick(budget);
  }

  budget_note_memory(budget, store.bytes());
  store.release(graph);
  return graph;
}

}  // namespace rlv
