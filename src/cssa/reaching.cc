#include "src/cssa/reaching.h"

#include <algorithm>

namespace cssame::cssa {

std::vector<SsaNameId> reachingDefs(const ssa::SsaForm& form,
                                    const ir::Expr* use) {
  std::vector<SsaNameId> defs;
  auto it = form.useDef.find(use);
  if (it == form.useDef.end()) return defs;
  DynBitset visited(form.defs.size());
  forEachReachingDef(form, it->second, visited,
                     [&](SsaNameId d) { defs.push_back(d); });
  std::sort(defs.begin(), defs.end());
  return defs;
}

}  // namespace cssame::cssa
