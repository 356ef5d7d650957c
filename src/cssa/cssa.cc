#include "src/cssa/cssa.h"

namespace cssame::cssa {

PiPlacementStats placePiTerms(pfg::Graph& /*graph*/, ssa::SsaForm& form,
                              const analysis::Mhp& mhp,
                              const analysis::AccessSites& sites) {
  PiPlacementStats stats;

  for (const auto& [var, uses] : sites.uses) {
    auto defsIt = sites.defs.find(var);
    if (defsIt == sites.defs.end()) continue;
    const std::vector<analysis::AccessSites::Def>& defs = defsIt->second;
    for (const analysis::AccessSites::Use& u : uses) {
      // Concurrent real definitions that may reach this use, counted
      // first so the argument list is allocated once.
      std::size_t count = 0;
      for (const analysis::AccessSites::Def& d : defs)
        count += mhp.conflicting(d.node, u.node) ? 1 : 0;
      if (count == 0) continue;
      std::vector<ssa::PiConflictArg> args;
      args.reserve(count);
      for (const analysis::AccessSites::Def& d : defs) {
        if (!mhp.conflicting(d.node, u.node)) continue;
        args.push_back(ssa::PiConflictArg{form.assignDef.at(d.stmt),
                                          d.node, d.stmt});
      }

      const SsaNameId pi = form.newDef(ssa::DefKind::Pi, var, u.node);
      ssa::Definition& p = form.def(pi);
      p.piUse = u.ref;
      p.piUseStmt = u.stmt;
      p.piControlArg = form.useDef.at(u.ref);
      p.piConflictArgs = std::move(args);
      form.useDef[u.ref] = pi;

      ++stats.pisPlaced;
      stats.conflictArgs += p.piConflictArgs.size();
    }
  }
  return stats;
}

}  // namespace cssame::cssa
