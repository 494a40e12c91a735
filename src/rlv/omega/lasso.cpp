#include "rlv/omega/lasso.hpp"

#include <stdexcept>
#include <vector>

#include "rlv/util/scc.hpp"

namespace rlv {

namespace {

/// The v-step relation of a lasso check in CSR form: the edges of p are
/// edges[off[p] .. off[p + 1]), each tagged with the acceptance sets some
/// run of v along it visits (a bit mask).
struct Relation {
  struct Edge {
    State target;
    std::uint32_t mask;
  };
  std::vector<std::uint32_t> off{0};
  std::vector<Edge> edges;
};

/// True when some SCC of `rel` reachable from `from` is non-trivial and the
/// masks of its internal edges cover `full`: v^ω then has a run from `from`
/// that visits every set infinitely often.
bool reaches_covering_scc(const Relation& rel, const DynBitset& from,
                          std::uint32_t full) {
  const auto n = static_cast<std::uint32_t>(rel.off.size() - 1);
  std::vector<bool> accepting_scc;
  const SccResult scc = tarjan_scc(
      n, [&](State p) { return rel.off[p]; },
      [&](std::uint32_t e) { return rel.edges[e].target; }, nullptr,
      [&](std::uint32_t id, std::span<const State> members,
          const SccResult& partial) {
        std::uint32_t covered = 0;
        for (const State p : members) {
          for (std::uint32_t e = rel.off[p]; e < rel.off[p + 1]; ++e) {
            if (partial.component[rel.edges[e].target] == id) {
              covered |= rel.edges[e].mask;
            }
          }
        }
        accepting_scc.push_back(partial.nontrivial[id] &&
                                (covered & full) == full);
      });

  DynBitset reach = from;
  std::vector<State> work;
  from.for_each([&](std::size_t s) { work.push_back(static_cast<State>(s)); });
  while (!work.empty()) {
    const State s = work.back();
    work.pop_back();
    if (accepting_scc[scc.component[s]]) return true;
    for (std::uint32_t e = rel.off[s]; e < rel.off[s + 1]; ++e) {
      const State t = rel.edges[e].target;
      if (!reach.test(t)) {
        reach.set(t);
        work.push_back(t);
      }
    }
  }
  return false;
}

}  // namespace

bool accepts_lasso(const Buchi& a, const Word& u, const Word& v) {
  if (v.empty()) {
    // An assert would vanish under NDEBUG and silently answer membership of
    // a finite word as if it were an ω-word.
    throw std::invalid_argument("accepts_lasso: period must be non-empty");
  }
  const std::size_t n = a.num_states();

  // States reachable after reading u (over all runs).
  const DynBitset after_u = a.structure().run(u);
  if (after_u.none()) return false;

  // v-step relation with acceptance flag: edge p -> q when some run of v
  // from p ends in q; flagged when some such run visits an accepting state
  // (the acceptance of intermediate states *and* of q and p itself count —
  // visiting p at the loop point happens infinitely often too).
  //
  // Computed by per-source BFS over (automaton state, position in v) with a
  // "seen accepting" bit; the flag is the edge's one-set mask.
  Relation rel;
  const std::size_t m = v.size();
  const DynBitset acc_mask = a.structure().accepting_set();
  for (State p = 0; p < n; ++p) {
    // DP over positions: reachable[i][q][f] — implemented as two bitsets per
    // position layer (f = 0/1).
    DynBitset cur0(n);
    DynBitset cur1(n);
    if (a.is_accepting(p)) {
      cur1.set(p);
    } else {
      cur0.set(p);
    }
    for (std::size_t i = 0; i < m; ++i) {
      DynBitset next0 = a.structure().step(cur0, v[i]);
      DynBitset next1 = a.structure().step(cur1, v[i]);
      // Entering an accepting state upgrades the flag.
      DynBitset upgraded = next0;
      upgraded &= acc_mask;
      next0 -= acc_mask;
      next1 |= upgraded;
      cur0 = std::move(next0);
      cur1 = std::move(next1);
    }
    cur0.for_each([&](std::size_t q) {
      rel.edges.push_back({static_cast<State>(q), 0});
    });
    cur1.for_each([&](std::size_t q) {
      rel.edges.push_back({static_cast<State>(q), 1});
    });
    rel.off.push_back(static_cast<std::uint32_t>(rel.edges.size()));
  }

  // An SCC of the v-relation graph, reachable from `after_u`, with an
  // internal accepting-flagged edge.
  return reaches_covering_scc(rel, after_u, 1);
}

bool accepts_lasso_gen(const GenBuchi& a, const Word& u, const Word& v) {
  if (v.empty()) {
    throw std::invalid_argument("accepts_lasso_gen: period must be non-empty");
  }
  const std::size_t n = a.structure.num_states();
  const std::size_t k = a.sets.size();
  if (k > 16) {
    throw std::invalid_argument(
        "accepts_lasso_gen: mask-based membership supports up to 16 sets");
  }
  const std::uint32_t full = (k == 0) ? 0 : ((1u << k) - 1);

  const DynBitset after_u = a.structure.run(u);
  if (after_u.none()) return false;
  if (k == 0) {
    // Any infinite run accepts; check a run of v^ω exists via the plain
    // relation reachability below with trivial masks.
  }

  auto state_mask = [&](std::size_t s) {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (a.sets[i].test(s)) mask |= (1u << i);
    }
    return mask;
  };

  // v-step relation with visited-sets mask.
  Relation rel;
  const std::size_t m = v.size();
  for (State p = 0; p < n; ++p) {
    // Layered BFS over (state, mask).
    std::vector<std::vector<std::uint32_t>> cur(n);
    cur[p].push_back(state_mask(p));
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<std::vector<std::uint32_t>> next(n);
      std::vector<std::uint32_t> seen_stamp(n * (full + 1), 0);
      for (State s = 0; s < n; ++s) {
        if (cur[s].empty()) continue;
        for (const auto& t : a.structure.out(s)) {
          if (t.symbol != v[i]) continue;
          const std::uint32_t add = state_mask(t.target);
          for (const std::uint32_t mask : cur[s]) {
            const std::uint32_t nm = mask | add;
            std::uint32_t& stamp = seen_stamp[t.target * (full + 1) + nm];
            if (stamp) continue;
            stamp = 1;
            next[t.target].push_back(nm);
          }
        }
      }
      cur = std::move(next);
    }
    for (State q = 0; q < n; ++q) {
      for (const std::uint32_t mask : cur[q]) rel.edges.push_back({q, mask});
    }
    rel.off.push_back(static_cast<std::uint32_t>(rel.edges.size()));
  }

  // An SCC accepts when it is non-trivial and the union of its internal
  // edge masks covers every set.
  return reaches_covering_scc(rel, after_u, full);
}

}  // namespace rlv
