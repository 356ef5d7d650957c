#include "src/repair/candidates.h"

#include <algorithm>
#include <map>
#include <span>

#include "src/ir/printer.h"

namespace cssame::repair {

bool parseFixTarget(std::string_view name, FixTarget& out) {
  if (name == "all") {
    out = FixTarget::All;
  } else if (name == "race" || name == "PotentialDataRace") {
    out = FixTarget::Race;
  } else if (name == "may-alias" || name == "MayAliasRace") {
    out = FixTarget::MayAlias;
  } else if (name == "tso" ||
             name == "MutualExclusionNotJustifiedUnderTSO") {
    out = FixTarget::Tso;
  } else if (name == "fence" || name == "FenceRedundant") {
    out = FixTarget::Fence;
  } else {
    return false;
  }
  return true;
}

const char* fixTargetName(FixTarget t) {
  switch (t) {
    case FixTarget::All: return "all";
    case FixTarget::Race: return "race";
    case FixTarget::MayAlias: return "may-alias";
    case FixTarget::Tso: return "tso";
    case FixTarget::Fence: return "fence";
  }
  return "?";
}

std::vector<LineEdit> Candidate::edits(const std::string& source) const {
  std::vector<LineEdit> out;
  switch (action) {
    case FixAction::WrapWithFreshLock:
      // Declared at the very top: line 1 of any program is global scope
      // (the grammar has no preamble), so the declaration always lands
      // outside every thread body.
      out.push_back({1, EditKind::InsertBefore, "lock " + lockName + ";"});
      [[fallthrough]];
    case FixAction::WrapWithLock:
      // Runs of consecutive statement lines become ONE lock/unlock range
      // — the minimal scope. Splitting a run into per-line regions would
      // put two bodies of the same lock back to back, which the mutex
      // body finder reads as a nested re-acquire.
      for (std::size_t i = 0; i < wrapLines.size();) {
        std::size_t j = i;
        while (j + 1 < wrapLines.size() &&
               wrapLines[j + 1] == wrapLines[j] + 1)
          ++j;
        const std::string indent = indentOf(source, wrapLines[i]);
        out.push_back({wrapLines[i], EditKind::InsertBefore,
                       indent + "lock(" + lockName + ");"});
        out.push_back({wrapLines[j], EditKind::InsertAfter,
                       indent + "unlock(" + lockName + ");"});
        i = j + 1;
      }
      break;
    case FixAction::FenceBeforeLoad:
      out.push_back({anchorLine, EditKind::InsertBefore,
                     indentOf(source, anchorLine) + "fence;"});
      break;
    case FixAction::FenceAfterStore:
      out.push_back({anchorLine, EditKind::InsertAfter,
                     indentOf(source, anchorLine) + "fence;"});
      break;
    case FixAction::AtomicUpgrade:
      out.push_back({anchorLine, EditKind::ReplaceLine,
                     indentOf(source, anchorLine) + replacementText});
      break;
    case FixAction::RemoveFence:
      out.push_back({anchorLine, EditKind::DeleteLine, ""});
      break;
  }
  return out;
}

std::string RepairTarget::describe() const {
  std::string s = std::string("[") + diagCodeName(code) + "] ";
  if (kind == TargetKind::Fence) {
    s += "'fence;' at " + locA.str();
    return s;
  }
  s += "'" + varName + "': '" + siteA + "' (" + locA.str() + ") <-> '" +
       siteB + "' (" + locB.str() + ")";
  return s;
}

namespace {

/// A statement the patch model can wrap: it occupies one source line and
/// inserting whole lines directly above/below keeps the nesting intact.
/// Compound statements (If/While headers, Cobegin) and the sync
/// statements a fix would never wrap are excluded — a race witness whose
/// access sits in a loop/branch *condition* has no single-line statement
/// to protect, and such targets go unfixed rather than mispatched.
bool wrappableStmt(const ir::Stmt* s) {
  if (s == nullptr || s->loc.line == 0) return false;
  switch (s->kind) {
    case ir::StmtKind::Assign:
    case ir::StmtKind::CallStmt:
    case ir::StmtKind::Print:
    case ir::StmtKind::Set:
    case ir::StmtKind::Wait:
    case ir::StmtKind::Assert:
      return true;
    default:
      return false;
  }
}

/// Sorted, deduplicated lock *names* for a lockset of symbol ids.
std::vector<std::string> lockNames(std::span<const SymbolId> locks,
                                   const ir::SymbolTable& syms) {
  std::vector<std::string> names;
  names.reserve(locks.size());
  for (SymbolId l : locks) names.push_back(syms.nameOf(l));
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

std::string lineList(const std::vector<std::uint32_t>& lines) {
  std::string s;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) s += i + 1 == lines.size() ? " and " : ", ";
    s += "line " + std::to_string(lines[i]);
  }
  return s;
}

Candidate wrapCandidate(const std::string& lockName, bool fresh,
                        std::vector<std::uint32_t> lines) {
  Candidate c;
  c.action = fresh ? FixAction::WrapWithFreshLock : FixAction::WrapWithLock;
  c.lockName = lockName;
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  c.wrapLines = std::move(lines);
  c.description =
      (fresh ? "declare fresh lock '" : "wrap with existing lock '") +
      lockName + (fresh ? "' and wrap " : "': ") + lineList(c.wrapLines);
  return c;
}

/// A fresh lock name no existing symbol uses and the source never
/// mentions (the text check keeps repeated repairs from colliding with a
/// name an earlier patch introduced but the current parse shadowed).
std::string freshLockName(const ir::SymbolTable& syms,
                          const std::string& source) {
  for (unsigned n = 0;; ++n) {
    std::string name = "__fix" + std::to_string(n);
    if (!syms.lookup(name).valid() && source.find(name) == std::string::npos)
      return name;
  }
}

void collectRaceTargets(const driver::Compilation& comp,
                        const sanalysis::CsanReport& csan, FixTarget filter,
                        const std::string& source, std::size_t maxCandidates,
                        std::vector<RepairTarget>& out) {
  const ir::SymbolTable& syms = comp.program().symbols;
  // Every declared lock, once, sorted by name — the reuse pool for
  // candidates that need a lock neither site holds.
  std::vector<std::string> allLocks;
  for (const ir::Symbol& s : syms.all())
    if (s.kind == ir::SymbolKind::Lock && !contains(allLocks, s.name))
      allLocks.push_back(s.name);
  std::sort(allLocks.begin(), allLocks.end());

  const auto wanted = [filter](const sanalysis::RaceWitness& w) {
    return w.mayAlias ? (filter == FixTarget::All ||
                         filter == FixTarget::MayAlias)
                      : (filter == FixTarget::All ||
                         filter == FixTarget::Race);
  };

  // A variable racing at more than two sites (two writers and a reader,
  // three increments, ...) cannot be repaired by protecting any single
  // witness pair: the diagnostic survives through the unprotected third
  // site and the pairwise candidates all fail verification. The access
  // index has *every* shared def/use of the class, so the lattice can
  // also offer "wrap every site" candidates.
  struct VarSites {
    std::vector<std::uint32_t> lines;  // every access site of the class
    bool allWrappable = true;
  };
  std::map<SymbolId, VarSites> byVar;
  const analysis::AccessSites& sites = comp.sites();
  const pfg::Graph& graph = comp.graph();
  // Sequential top-level accesses (before the fork / after the join)
  // cannot race and must not be wrapped — a lock at global scope makes
  // the mutex body ill-formed.
  const auto inThread = [&graph](NodeId n) {
    return !graph.node(n).threadPath.empty();
  };
  for (const sanalysis::RaceWitness& w : csan.raceWitnesses) {
    if (!wanted(w) || byVar.count(w.var)) continue;
    VarSites& vs = byVar[w.var];
    const auto defs = sites.defs.find(w.var);
    if (defs != sites.defs.end())
      for (const analysis::AccessSites::Def& d : defs->second) {
        if (!inThread(d.node)) continue;
        if (wrappableStmt(d.stmt))
          vs.lines.push_back(d.stmt->loc.line);
        else
          vs.allWrappable = false;
      }
    const auto uses = sites.uses.find(w.var);
    if (uses != sites.uses.end())
      for (const analysis::AccessSites::Use& u : uses->second) {
        if (!inThread(u.node)) continue;
        if (wrappableStmt(u.stmt))
          vs.lines.push_back(u.stmt->loc.line);
        else
          vs.allWrappable = false;
      }
    std::sort(vs.lines.begin(), vs.lines.end());
    vs.lines.erase(std::unique(vs.lines.begin(), vs.lines.end()),
                   vs.lines.end());
  }

  for (const sanalysis::RaceWitness& w : csan.raceWitnesses) {
    if (!wanted(w)) continue;

    RepairTarget t;
    t.kind = w.mayAlias ? TargetKind::MayAlias : TargetKind::Race;
    t.code = w.mayAlias ? DiagCode::MayAliasRace : DiagCode::PotentialDataRace;
    t.varName = syms.nameOf(w.var);
    t.locA = w.def.loc;
    t.locB = w.other.loc;
    t.siteA = w.def.stmt ? ir::printStmtBrief(*w.def.stmt, syms) : "?";
    t.siteB = w.other.stmt ? ir::printStmtBrief(*w.other.stmt, syms) : "?";
    // Line numbers shift as fixes land; the statement text and the arm
    // pair do not, so targets keep their identity across iterations.
    t.signature = std::string(diagCodeName(t.code)) + "|" + t.varName + "|" +
                  std::min(t.siteA, t.siteB) + "|" +
                  std::max(t.siteA, t.siteB) + "|" + std::to_string(w.armA) +
                  "," + std::to_string(w.armB);

    const bool defOk = wrappableStmt(w.def.stmt);
    const bool othOk = wrappableStmt(w.other.stmt);
    const std::vector<std::string> defLocks = lockNames(w.def.lockset, syms);
    const std::vector<std::string> othLocks = lockNames(w.other.lockset, syms);

    // 1./2. Extend the protocol one end already follows.
    for (const std::string& l : defLocks)
      if (othOk && !contains(othLocks, l))
        t.candidates.push_back(wrapCandidate(l, false, {w.other.loc.line}));
    for (const std::string& l : othLocks)
      if (defOk && !contains(defLocks, l))
        t.candidates.push_back(wrapCandidate(l, false, {w.def.loc.line}));
    // 3./4. Both sites unprotected by any common lock: wrap both with a
    // declared lock neither holds, then with a fresh one. Sites sharing a
    // line cannot be wrapped separately — skipped, and the target goes
    // unfixed if nothing above applied.
    if (defOk && othOk && w.def.loc.line != w.other.loc.line) {
      for (const std::string& l : allLocks)
        if (!contains(defLocks, l) && !contains(othLocks, l))
          t.candidates.push_back(
              wrapCandidate(l, false, {w.def.loc.line, w.other.loc.line}));
      t.candidates.push_back(
          wrapCandidate(freshLockName(syms, source), true,
                        {w.def.loc.line, w.other.loc.line}));
    }
    // 5. The variable is accessed at more sites than this pair: wrap
    // them all (first with each declared lock the pair does not hold,
    // then fresh). Only offered when every access site is wrappable —
    // with an unwrappable site left over the diagnostic survives
    // regardless. Sites already protected by some lock make the uniform
    // wrap ill-formed (nested acquire); verification rejects those
    // candidates, so this rung simply does not fire for mixed protocols.
    const auto vsIt = byVar.find(w.var);
    if (vsIt != byVar.end() && vsIt->second.allWrappable &&
        vsIt->second.lines.size() > 2) {
      const VarSites& vs = vsIt->second;
      for (const std::string& l : allLocks)
        if (!contains(defLocks, l) && !contains(othLocks, l))
          t.candidates.push_back(wrapCandidate(l, false, vs.lines));
      t.candidates.push_back(
          wrapCandidate(freshLockName(syms, source), true, vs.lines));
    }
    if (t.candidates.size() > maxCandidates) t.candidates.resize(maxCandidates);
    out.push_back(std::move(t));
  }
}

void collectTsoTargets(const driver::Compilation& comp,
                       const sanalysis::TsoReport& tso,
                       std::size_t maxCandidates,
                       std::vector<RepairTarget>& out) {
  const ir::SymbolTable& syms = comp.program().symbols;
  for (const sanalysis::TsoWitness& w : tso.witnesses) {
    RepairTarget t;
    t.kind = TargetKind::Tso;
    t.code = DiagCode::MutualExclusionNotJustifiedUnderTSO;
    t.varName = syms.nameOf(w.storeVar) + "->" + syms.nameOf(w.loadVar);
    t.locA = w.storeLoc;
    t.locB = w.loadLoc;
    t.siteA = w.storeStmt ? ir::printStmtBrief(*w.storeStmt, syms) : "?";
    t.siteB = w.loadStmt ? ir::printStmtBrief(*w.loadStmt, syms) : "?";
    t.signature = std::string(diagCodeName(t.code)) + "|" + t.varName + "|" +
                  t.siteA + "|" + t.siteB;

    if (wrappableStmt(w.loadStmt)) {
      Candidate c;
      c.action = FixAction::FenceBeforeLoad;
      c.anchorLine = w.loadLoc.line;
      c.description = "insert 'fence;' before the load at line " +
                      std::to_string(c.anchorLine);
      t.candidates.push_back(std::move(c));
    }
    if (wrappableStmt(w.storeStmt)) {
      Candidate c;
      c.action = FixAction::FenceAfterStore;
      c.anchorLine = w.storeLoc.line;
      c.description = "insert 'fence;' after the store at line " +
                      std::to_string(c.anchorLine);
      t.candidates.push_back(std::move(c));
    }
    // atomic_store upgrade: only for a plain scalar store whose whole
    // statement the ReplaceLine edit can re-render faithfully.
    if (w.storeStmt != nullptr && w.storeStmt->loc.line != 0 &&
        w.storeStmt->kind == ir::StmtKind::Assign &&
        w.storeStmt->lhsKind == ir::LValueKind::Var && !w.storeStmt->atomic &&
        w.storeStmt->expr != nullptr) {
      Candidate c;
      c.action = FixAction::AtomicUpgrade;
      c.anchorLine = w.storeLoc.line;
      c.replacementText = "atomic_store(" + syms.nameOf(w.storeStmt->lhs) +
                          ", " + ir::printExpr(*w.storeStmt->expr, syms) +
                          ");";
      c.description = "upgrade the store at line " +
                      std::to_string(c.anchorLine) + " to '" +
                      c.replacementText + "'";
      t.candidates.push_back(std::move(c));
    }
    if (t.candidates.size() > maxCandidates) t.candidates.resize(maxCandidates);
    out.push_back(std::move(t));
  }
}

void collectFenceTargets(const sanalysis::TsoReport& tso,
                         const std::string& source,
                         std::vector<RepairTarget>& out) {
  const std::vector<std::string> lines = splitLines(source);
  std::size_t ordinal = 0;
  for (SourceLoc loc : tso.redundantFenceSites) {
    ++ordinal;
    RepairTarget t;
    t.kind = TargetKind::Fence;
    t.code = DiagCode::FenceRedundant;
    t.locA = loc;
    t.siteA = "fence;";
    t.signature = std::string(diagCodeName(t.code)) + "|#" +
                  std::to_string(ordinal);
    // Deleting the whole line is only safe when the line holds nothing
    // but the fence (modulo indentation).
    if (loc.line >= 1 && loc.line <= lines.size()) {
      std::string text = lines[loc.line - 1];
      text.erase(0, text.find_first_not_of(" \t"));
      while (!text.empty() &&
             (text.back() == ' ' || text.back() == '\t' || text.back() == '\r'))
        text.pop_back();
      if (text == "fence;") {
        Candidate c;
        c.action = FixAction::RemoveFence;
        c.anchorLine = loc.line;
        c.description = "delete the redundant 'fence;' at line " +
                        std::to_string(c.anchorLine);
        t.candidates.push_back(std::move(c));
      }
    }
    out.push_back(std::move(t));
  }
}

}  // namespace

std::vector<RepairTarget> collectTargets(const driver::Compilation& comp,
                                         const sanalysis::CsanReport& csan,
                                         const sanalysis::TsoReport& tso,
                                         FixTarget filter,
                                         const std::string& source,
                                         std::size_t maxCandidates) {
  std::vector<RepairTarget> out;
  if (filter == FixTarget::All || filter == FixTarget::Race ||
      filter == FixTarget::MayAlias)
    collectRaceTargets(comp, csan, filter, source, maxCandidates, out);
  if (filter == FixTarget::All || filter == FixTarget::Tso)
    collectTsoTargets(comp, tso, maxCandidates, out);
  if (filter == FixTarget::All || filter == FixTarget::Fence)
    collectFenceTargets(tso, source, out);
  return out;
}

}  // namespace cssame::repair
