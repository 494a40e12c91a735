#include "rlv/core/machine_closure.hpp"

#include "rlv/lang/inclusion.hpp"
#include "rlv/omega/live.hpp"

namespace rlv {

bool is_machine_closed(const Buchi& system, const Buchi& live_part) {
  return is_included(prefix_nfa(system), prefix_nfa(live_part));
}

}  // namespace rlv
