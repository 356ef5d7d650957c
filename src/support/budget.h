// Resource budgets for potentially-exponential computations.
//
// The interpreter and especially the interleaving explorer walk state
// spaces whose size the caller cannot predict; a production service must
// bound them, and report which cap a bounded run tripped first.
#pragma once

#include <cstdint>

namespace cssame::support {

enum class BudgetKind : std::uint8_t {
  None,     ///< within budget
  Steps,    ///< execution step cap
  Depth,    ///< per-schedule depth cap
  States,   ///< distinct explored state cap
  Threads,  ///< live thread cap
  Memory,   ///< approximate byte cap
};

[[nodiscard]] constexpr const char* budgetKindName(BudgetKind kind) {
  switch (kind) {
    case BudgetKind::None: return "none";
    case BudgetKind::Steps: return "steps";
    case BudgetKind::Depth: return "depth";
    case BudgetKind::States: return "states";
    case BudgetKind::Threads: return "threads";
    case BudgetKind::Memory: return "memory";
  }
  return "unknown";
}

}  // namespace cssame::support
