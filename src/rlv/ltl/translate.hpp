#pragma once

// LTL → Büchi translation via the tableau construction of Gerth–Peled–
// Vardi–Wolper (GPVW), in two steps:
//
//   build_tableau   formula → Tableau. Alphabet-free: the expansion of the
//                   positive normal form into tableau nodes, each recording
//                   its literals, its successors and its Until acceptance
//                   memberships. Built once per formula polarity.
//   instantiate     Tableau × λ → generalized Büchi automaton over λ's
//                   alphabet: one Σ-mask per literal, one letter mask per
//                   node, transitions into every node whose mask is
//                   non-empty. Only λ depends on the system (§3).
//
// The automaton runs over an alphabet Σ: a letter a satisfies an atom p of
// the formula iff p ∈ λ(a) for the given labeling λ. With the canonical
// Σ-labeling this realizes the paper's Σ-normal-form interpretation; with a
// homomorphism labeling λ_hΣΣ' it interprets transformed formulas R̄(η) over
// the concrete alphabet (§7).
//
// Subformulas get dense ids in a structural post-order, so a tableau (and
// every automaton instantiated from it) depends on the formula's structure
// only — never on the order in which its nodes were interned.

#include <cstdint>
#include <string>
#include <vector>

#include "rlv/ltl/ast.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/util/bitset.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

/// The GPVW tableau of one formula. Node ids are dense; successor lists are
/// shared by every node with the same next-obligations. Immutable once
/// built, so one tableau can be instantiated concurrently on many
/// alphabets.
struct Tableau {
  struct Literal {
    std::string atom;
    bool positive;  // p (true) or ¬p (false)
  };

  std::vector<Literal> literals;
  /// Literals asserted by node n: literal_ids[literal_offsets[n] ..
  /// literal_offsets[n+1]).
  std::vector<std::uint32_t> literal_offsets;
  std::vector<std::uint32_t> literal_ids;
  /// Successor list of node n: list next_list[n]. List 0 holds the initial
  /// nodes (the cover of {formula}).
  std::vector<std::uint32_t> next_list;
  std::vector<std::uint32_t> list_offsets;
  std::vector<std::uint32_t> list_nodes;
  /// One set per Until subformula ψ = f U g, over node ids: the nodes that
  /// do not assert ψ or that assert g.
  std::vector<DynBitset> accepting;

  [[nodiscard]] std::size_t num_nodes() const { return next_list.size(); }
};

// The kernels charge each constructed tableau node / automaton state to the
// optional Budget under the caller's current stage, and tick its deadline
// inside the tableau expansion (which can be exponential in the formula
// size on its own). The translate_ltl entry points open Stage::kTranslate.

/// The tableau of `f`, converted to positive normal form internally.
[[nodiscard]] Tableau build_tableau(Formula f, Budget* budget = nullptr);

/// The generalized Büchi automaton of `tableau` over λ's alphabet: state 0
/// is a fresh initial state, the others are the tableau nodes reachable
/// under λ (numbered in breadth-first order). One acceptance set per Until
/// subformula.
[[nodiscard]] GenBuchi instantiate(const Tableau& tableau,
                                   const Labeling& lambda,
                                   Budget* budget = nullptr);

/// Büchi automaton for { x ∈ Σ^ω | x,λ ⊨ f }.
[[nodiscard]] Buchi translate_ltl(Formula f, const Labeling& lambda,
                                  Budget* budget = nullptr);

/// Büchi automaton for the complement property { x | x,λ ⊭ f }: translation
/// of the pushed-in negation. Cheaper and far smaller than rank-based
/// complementation of translate_ltl(f).
[[nodiscard]] Buchi translate_ltl_negated(Formula f, const Labeling& lambda,
                                          Budget* budget = nullptr);

/// The generalized (pre-degeneralization) automaton, exposed for tests and
/// size benchmarks.
[[nodiscard]] GenBuchi translate_ltl_gen(Formula f, const Labeling& lambda,
                                         Budget* budget = nullptr);

}  // namespace rlv
