#include "src/mutex/races.h"

#include <algorithm>

namespace cssame::mutex {

namespace {

/// Statement performing the access the conflict edge endpoint refers to,
/// so warnings anchor at the real source site instead of the variable's
/// first definition.
const ir::Stmt* accessStmtAt(NodeId node, SymbolId var, bool isDef,
                             const analysis::AccessSites& sites) {
  if (isDef) {
    auto it = sites.defs.find(var);
    if (it != sites.defs.end())
      for (const auto& d : it->second)
        if (d.node == node) return d.stmt;
  } else {
    auto it = sites.uses.find(var);
    if (it != sites.uses.end())
      for (const auto& u : it->second)
        if (u.node == node) return u.stmt;
  }
  return nullptr;
}

}  // namespace

DynBitset concurrentlyAccessed(const pfg::Graph& graph,
                               const analysis::Mhp& mhp) {
  DynBitset concurrent(graph.program().symbols.size());
  for (const pfg::ConflictEdge& e : graph.conflicts)
    if (!concurrent.test(e.var.index()) &&
        mhp.mayHappenInParallel(e.from, e.to))
      concurrent.set(e.var.index());
  return concurrent;
}

bool warnInconsistentLocking(
    SymbolId var, const std::vector<analysis::AccessSites::Def>& defs,
    const MutexStructures& structures, const ir::SymbolTable& syms,
    DiagEngine& diag) {
  if (defs.size() < 2) return false;
  // The locks every write holds. Each node's locks are ascending and
  // distinct, so membership is a binary search.
  const std::span<const SymbolId> firstLocks =
      structures.locksAt(defs.front().node);
  std::vector<SymbolId> common(firstLocks.begin(), firstLocks.end());
  bool anyProtected = false;
  for (const auto& d : defs) {
    const std::span<const SymbolId> locks = structures.locksAt(d.node);
    anyProtected |= !locks.empty();
    std::erase_if(common, [&](SymbolId l) {
      return !std::binary_search(locks.begin(), locks.end(), l);
    });
  }
  if (!anyProtected || !common.empty()) return false;

  Diagnostic& w = diag.warn(
      DiagCode::InconsistentLocking, defs.front().stmt->loc,
      "writes to shared variable '" + syms.nameOf(var) +
          "' are not consistently protected by the same lock");
  for (const auto& d : defs)
    w.note(d.stmt->loc, "write under lockset " +
                            locksetStr(structures.locksAt(d.node), syms));
  return true;
}

RaceReport detectRaces(const pfg::Graph& graph, const analysis::Mhp& mhp,
                       const MutexStructures& structures, DiagEngine& diag) {
  return detectRaces(graph, mhp, structures, diag,
                     analysis::collectAccessSites(graph));
}

RaceReport detectRaces(const pfg::Graph& graph, const analysis::Mhp& mhp,
                       const MutexStructures& structures, DiagEngine& diag,
                       const analysis::AccessSites& sites) {
  RaceReport report;
  const ir::SymbolTable& syms = graph.program().symbols;
  const DynBitset concurrent = concurrentlyAccessed(graph, mhp);
  // Per variable, the first conflict edge whose endpoints may happen in
  // parallel and share no lock: the site pair of its race warning.
  std::vector<const pfg::ConflictEdge*> firstRace(syms.size(), nullptr);
  for (const pfg::ConflictEdge& e : graph.conflicts)
    if (firstRace[e.var.index()] == nullptr &&
        mhp.mayHappenInParallel(e.from, e.to) &&
        !structures.shareLock(e.from, e.to))
      firstRace[e.var.index()] = &e;

  for (const auto& [var, defs] : sites.defs) {
    if (defs.size() < 2 && !sites.uses.contains(var)) continue;
    // Locks are irrelevant to a variable never accessed concurrently.
    if (!concurrent.test(var.index())) continue;
    if (warnInconsistentLocking(var, defs, structures, syms, diag))
      ++report.inconsistentLocking;

    // PotentialDataRace: concurrent def/def or def/use with disjoint
    // locksets. One warning per variable keeps output readable.
    const pfg::ConflictEdge* e = firstRace[var.index()];
    if (e == nullptr) continue;
    ++report.potentialRaces;
    const ir::Stmt* fromStmt = accessStmtAt(e->from, var, true, sites);
    const ir::Stmt* toStmt = accessStmtAt(e->to, var, e->toIsDef, sites);
    // Anchor at the defining access of the conflict edge, not at the
    // variable's first write, which may lie elsewhere.
    const SourceLoc loc =
        fromStmt != nullptr ? fromStmt->loc : defs.front().stmt->loc;
    Diagnostic& d = diag.warn(
        DiagCode::PotentialDataRace, loc,
        "potential data race on shared variable '" + syms.nameOf(var) +
            "': concurrent accesses share no common lock");
    d.note(loc, "write under lockset " +
                    locksetStr(structures.locksAt(e->from), syms));
    if (toStmt != nullptr)
      d.note(toStmt->loc, std::string("concurrent ") +
                              (e->toIsDef ? "write" : "read") +
                              " under lockset " +
                              locksetStr(structures.locksAt(e->to), syms));
  }
  return report;
}

}  // namespace cssame::mutex
