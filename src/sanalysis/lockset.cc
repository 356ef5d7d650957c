#include "src/sanalysis/lockset.h"

namespace cssame::sanalysis {

std::set<SymbolId> locksetAt(NodeId node,
                             const mutex::MutexStructures& structures) {
  const std::span<const SymbolId> locks = structures.locksAt(node);
  return {locks.begin(), locks.end()};
}

std::string locksetStr(const std::set<SymbolId>& lockset,
                       const ir::SymbolTable& syms) {
  if (lockset.empty()) return "{}";
  std::string out = "{";
  bool first = true;
  for (SymbolId l : lockset) {
    if (!first) out += ", ";
    out += syms.nameOf(l);
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace cssame::sanalysis
