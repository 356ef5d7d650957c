#include "src/sanalysis/lockset.h"

namespace cssame::sanalysis {

std::set<SymbolId> locksetAt(NodeId node,
                             const mutex::MutexStructures& structures) {
  const std::span<const SymbolId> locks = structures.locksAt(node);
  return {locks.begin(), locks.end()};
}

}  // namespace cssame::sanalysis
