#include "src/mutex/races.h"

#include <algorithm>
#include <set>

namespace cssame::mutex {

namespace {

/// Locks (lock variables) whose well-formed bodies contain `node`.
std::set<SymbolId> locksetOf(NodeId node, const MutexStructures& structures) {
  const std::span<const SymbolId> locks = structures.locksAt(node);
  return {locks.begin(), locks.end()};
}

std::string locksetStr(const std::set<SymbolId>& ls,
                       const ir::SymbolTable& syms) {
  if (ls.empty()) return "{}";
  std::string out = "{";
  bool first = true;
  for (SymbolId l : ls) {
    if (!first) out += ", ";
    out += syms.nameOf(l);
    first = false;
  }
  out += "}";
  return out;
}

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

  // Gather, per shared variable, the locksets of its definition sites.
  for (const auto& [var, defs] : sites.defs) {
    if (defs.size() < 2 && !sites.uses.contains(var)) continue;

    std::vector<std::set<SymbolId>> defLocksets;
    defLocksets.reserve(defs.size());
    for (const auto& d : defs)
      defLocksets.push_back(locksetOf(d.node, structures));

    // InconsistentLocking: some write protected by a lock, another write
    // not protected by that lock. Only meaningful if the variable is ever
    // accessed concurrently (otherwise locks are irrelevant to it).
    // Conflict edges are computed without the set/wait refinement (they
    // drive dataflow); for race reporting, accesses with a guaranteed
    // ordering cannot overlap and are excluded here.
    bool concurrentlyAccessed = false;
    for (const pfg::ConflictEdge& e : graph.conflicts)
      if (e.var == var && mhp.mayHappenInParallel(e.from, e.to)) {
        concurrentlyAccessed = true;
        break;
      }
    if (!concurrentlyAccessed) continue;

    std::set<SymbolId> intersection;
    bool first = true;
    for (const auto& ls : defLocksets) {
      if (first) {
        intersection = ls;
        first = false;
      } else {
        std::set<SymbolId> tmp;
        std::set_intersection(intersection.begin(), intersection.end(),
                              ls.begin(), ls.end(),
                              std::inserter(tmp, tmp.begin()));
        intersection = std::move(tmp);
      }
    }
    bool anyProtected = false;
    for (const auto& ls : defLocksets) anyProtected |= !ls.empty();
    if (anyProtected && intersection.empty() && defs.size() > 1) {
      ++report.inconsistentLocking;
      Diagnostic& d = diag.warn(
          DiagCode::InconsistentLocking, defs.front().stmt->loc,
          "writes to shared variable '" + syms.nameOf(var) +
              "' are not consistently protected by the same lock");
      // Witness: every write site with the locks it holds.
      for (std::size_t i = 0; i < defs.size(); ++i)
        d.note(defs[i].stmt->loc,
               "write under lockset " + locksetStr(defLocksets[i], syms));
    }

    // PotentialDataRace: concurrent def/def or def/use with disjoint
    // locksets. One warning per variable keeps output readable.
    bool raced = false;
    for (const pfg::ConflictEdge& e : graph.conflicts) {
      if (e.var != var || raced) continue;
      if (!mhp.mayHappenInParallel(e.from, e.to)) continue;
      if (!structures.shareLock(e.from, e.to)) {
        const std::set<SymbolId> fromLs = locksetOf(e.from, structures);
        const std::set<SymbolId> toLs = locksetOf(e.to, structures);
        ++report.potentialRaces;
        raced = true;
        const ir::Stmt* fromStmt = accessStmtAt(e.from, var, true, sites);
        const ir::Stmt* toStmt =
            accessStmtAt(e.to, var, e.toIsDef, sites);
        // Anchor at the defining access of the conflict edge; the old
        // behaviour of pointing at the variable's first write mislocated
        // races whose sites were elsewhere.
        const SourceLoc loc =
            fromStmt != nullptr ? fromStmt->loc : defs.front().stmt->loc;
        Diagnostic& d = diag.warn(
            DiagCode::PotentialDataRace, loc,
            "potential data race on shared variable '" + syms.nameOf(var) +
                "': concurrent accesses share no common lock");
        d.note(loc, "write under lockset " + locksetStr(fromLs, syms));
        if (toStmt != nullptr)
          d.note(toStmt->loc,
                 std::string("concurrent ") +
                     (e.toIsDef ? "write" : "read") + " under lockset " +
                     locksetStr(toLs, syms));
      }
    }
  }
  return report;
}

}  // namespace cssame::mutex
