#include "rlv/gen/guarded.hpp"

#include <cassert>

#include "rlv/util/intern.hpp"

namespace rlv {

GuardedSystem::VarId GuardedSystem::add_variable(std::string_view name,
                                                 std::uint8_t domain_size,
                                                 std::uint8_t initial_value) {
  assert(initial_value < domain_size);
  const VarId v = names_.size();
  names_.emplace_back(name);
  domains_.push_back(domain_size);
  initial_.push_back(initial_value);
  return v;
}

void GuardedSystem::add_rule(std::string_view label,
                             std::function<bool(const Valuation&)> guard,
                             std::function<void(Valuation&)> update) {
  rules_.push_back({std::string(label), std::move(guard), std::move(update)});
}

GuardedSystem::BuildResult GuardedSystem::build(std::size_t max_states) const {
  auto sigma = std::make_shared<Alphabet>();
  std::vector<Symbol> rule_symbol;
  rule_symbol.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    rule_symbol.push_back(sigma->intern(rule.label));
  }

  // Valuation ids are the system's state ids (first-seen order), and the
  // breadth-first worklist is the id order itself.
  BuildResult result{Nfa(sigma), {}, true};
  TupleInterner<std::uint8_t> ids(domains_.size());

  auto intern = [&](const Valuation& v) -> State {
    if (result.valuations.size() >= max_states) {
      // Cap reached: known valuations still resolve, fresh ones truncate.
      const State found = ids.find(v.data());
      if (found == kNoState) result.complete = false;
      return found;
    }
    const auto [id, fresh] = ids.intern(v.data());
    if (fresh) {
      result.system.add_state(true);
      result.valuations.push_back(v);
    }
    return id;
  };

  const State start = intern(initial_);
  if (start != kNoState) result.system.set_initial(start);

  for (State from = 0; from < result.valuations.size(); ++from) {
    const Valuation v = result.valuations[from];  // copy: valuations grows
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      if (!rules_[r].guard(v)) continue;
      Valuation next = v;
      rules_[r].update(next);
      for (std::size_t i = 0; i < next.size(); ++i) {
        assert(next[i] < domains_[i] && "update left the variable domain");
      }
      const State to = intern(next);
      if (to == kNoState) continue;
      result.system.add_transition(from, rule_symbol[r], to);
    }
  }
  return result;
}

}  // namespace rlv
