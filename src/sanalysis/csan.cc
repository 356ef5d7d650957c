#include "src/sanalysis/csan.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>

#include "src/dataflow/reach.h"
#include "src/opt/lock_independence.h"
#include "src/support/bitset.h"

namespace cssame::sanalysis {

namespace {

/// The access records conflict-edge endpoints refer to: the first def and
/// the first use of each (node, alias class) in the compilation's cached
/// access sites, indexed once per run.
class SiteRecords {
 public:
  explicit SiteRecords(const analysis::AccessSites& sites) {
    for (const auto& [cls, defs] : sites.defs)
      for (const auto& d : defs) defs_.emplace(key(d.node, cls), &d);
    for (const auto& [cls, uses] : sites.uses)
      for (const auto& u : uses) uses_.emplace(key(u.node, cls), &u);
  }

  [[nodiscard]] const analysis::AccessSites::Def* defAt(NodeId node,
                                                        SymbolId cls) const {
    auto it = defs_.find(key(node, cls));
    return it == defs_.end() ? nullptr : it->second;
  }
  [[nodiscard]] const analysis::AccessSites::Use* useAt(NodeId node,
                                                        SymbolId cls) const {
    auto it = uses_.find(key(node, cls));
    return it == uses_.end() ? nullptr : it->second;
  }

 private:
  static std::uint64_t key(NodeId node, SymbolId cls) {
    return std::uint64_t{node.value()} << 32 | cls.value();
  }

  std::unordered_map<std::uint64_t, const analysis::AccessSites::Def*> defs_;
  std::unordered_map<std::uint64_t, const analysis::AccessSites::Use*> uses_;
};

SourceLoc locOf(const ir::Stmt* stmt) {
  return stmt != nullptr ? stmt->loc : SourceLoc{};
}

/// Renders a lockset as "{L, M}" or "{}", in the order given (ascending
/// for MutexStructures::locksAt spans).
std::string locksetStr(std::span<const SymbolId> locks,
                       const ir::SymbolTable& syms) {
  std::string out = "{";
  for (SymbolId l : locks) {
    if (out.size() > 1) out += ", ";
    out += syms.nameOf(l);
  }
  return out + "}";
}

class Csan {
 public:
  Csan(const driver::Compilation& comp, DiagEngine& diag)
      : comp_(comp),
        diag_(diag),
        graph_(comp.graph()),
        syms_(comp.graph().program().symbols),
        structures_(comp.mutexes()) {
    for (const pfg::Node& n : graph_.nodes())
      if (n.kind == pfg::NodeKind::Cobegin && n.syncStmt != nullptr)
        cobeginStmt_[n.syncStmt->id] = n.syncStmt;
  }

  /// Races, inconsistent locking and deadlocks: runLockChecks.
  void checkLockDiscipline() {
    checkRaces();
    checkInconsistentLocking();
    report_.deadlocks =
        mutex::detectDeadlocks(graph_, comp_.mhp(), structures_, diag_);
  }

  CsanReport take() { return std::move(report_); }

 private:
  /// Appends the MHP justification of a concurrent pair to a diagnostic:
  /// the cobegin whose sibling arms keep the two sites unordered.
  void noteMhp(Diagnostic& d, NodeId a, NodeId b) {
    const auto div = comp_.mhp().divergenceOf(a, b);
    if (!div) return;
    auto it = cobeginStmt_.find(div->cobegin);
    const SourceLoc loc =
        it != cobeginStmt_.end() ? it->second->loc : SourceLoc{};
    d.note(loc, "the sites run in arms " + std::to_string(div->armA) +
                    " and " + std::to_string(div->armB) +
                    " of this cobegin and may interleave");
  }

  RaceSite makeSite(const SiteRecords& records, NodeId node, SymbolId cls,
                    bool isDef) const {
    RaceSite s;
    s.node = node;
    s.isWrite = isDef;
    if (isDef) {
      if (const auto* d = records.defAt(node, cls)) {
        s.stmt = d->stmt;
        s.viaDeref = d->viaDeref;
        s.accessedSym = d->accessedSym;
        if (d->stmt->lhsKind == ir::LValueKind::Index)
          s.indexExpr = d->stmt->lhsAddr.get();
      }
    } else {
      if (const auto* u = records.useAt(node, cls)) {
        s.stmt = u->stmt;
        s.ref = u->ref;
        s.viaDeref = u->viaDeref;
        s.accessedSym = u->accessedSym;
        if (u->ref != nullptr && u->ref->kind == ir::ExprKind::Index)
          s.indexExpr = u->ref->operands[0].get();
      }
    }
    s.loc = locOf(s.stmt);
    s.lockset = structures_.locksAt(node);
    return s;
  }

  /// Points-to chain note for a pointer access: which locations the
  /// solved analysis says the dereference may touch.
  void notePts(Diagnostic& d, const RaceSite& s) {
    if (!s.viaDeref || comp_.pointsTo() == nullptr) return;
    const PointsToResult& pt = *comp_.pointsTo();
    const PtSet* pts = nullptr;
    if (s.isWrite) {
      auto it = pt.storePts.find(s.stmt);
      if (it != pt.storePts.end()) pts = &it->second;
    } else {
      auto it = pt.loadPts.find(s.ref);
      if (it != pt.loadPts.end()) pts = &it->second;
    }
    if (pts != nullptr)
      d.note(s.loc, std::string(s.isWrite ? "store" : "load") +
                        " through a pointer that may target " +
                        formatPtSet(*pts, syms_));
  }

  /// Access-site-granular lockset race check: one PotentialDataRace per
  /// conflicting site pair that may happen in parallel with disjoint
  /// locksets.
  void checkRaces() {
    const SiteRecords records(comp_.sites());
    std::set<std::tuple<SymbolId, NodeId, NodeId>> seen;
    for (const pfg::ConflictEdge& e : graph_.conflicts) {
      if (!comp_.mhp().mayHappenInParallel(e.from, e.to)) continue;
      if (structures_.shareLock(e.from, e.to)) continue;
      const RaceSite def = makeSite(records, e.from, e.var, true);
      const RaceSite other = makeSite(records, e.to, e.var, e.toIsDef);
      // Two *direct* accesses naming different members of one alias class
      // never touch the same cell — the class pairs them only because a
      // pointer elsewhere may touch both. No race between these two.
      if (!def.viaDeref && !other.viaDeref && def.accessedSym.valid() &&
          other.accessedSym.valid() && def.accessedSym != other.accessedSym)
        continue;
      // MayAliasRace: the pair races only if the accesses actually alias
      // — a pointer access, or array accesses with differing indices.
      // Plain same-symbol scalar pairs stay PotentialDataRace.
      bool mayAlias = def.viaDeref || other.viaDeref;
      if (!mayAlias && def.indexExpr != nullptr && other.indexExpr != nullptr &&
          !ir::exprEquals(*def.indexExpr, *other.indexExpr))
        mayAlias = true;
      // DD and DU edges can join the same node pair; one witness per
      // unordered pair keeps output readable without losing sites.
      const auto key = std::make_tuple(e.var, std::min(e.from, e.to),
                                       std::max(e.from, e.to));
      if (!seen.insert(key).second) continue;

      RaceWitness w;
      w.var = e.var;
      w.mayAlias = mayAlias;
      w.def = def;
      w.other = other;
      if (const auto div = comp_.mhp().divergenceOf(e.from, e.to)) {
        w.cobegin = div->cobegin;
        w.armA = div->armA;
        w.armB = div->armB;
        auto it = cobeginStmt_.find(div->cobegin);
        if (it != cobeginStmt_.end()) w.cobeginLoc = it->second->loc;
      }

      if (mayAlias)
        ++report_.mayAliasRaces;
      else
        ++report_.potentialRaces;
      report_.racedVars.insert(e.var);
      Diagnostic& d =
          mayAlias
              ? diag_.warn(
                    DiagCode::MayAliasRace, def.loc,
                    "potential data race through aliasing on the storage "
                    "of '" +
                        syms_.nameOf(e.var) +
                        "': this write and a concurrent " +
                        (other.isWrite ? "write" : "read") +
                        " may touch the same cell and share no common lock")
              : diag_.warn(
                    DiagCode::PotentialDataRace, def.loc,
                    "potential data race on shared variable '" +
                        syms_.nameOf(e.var) + "': this write and a concurrent " +
                        (other.isWrite ? "write" : "read") +
                        " share no common lock");
      d.note(def.loc, "write under lockset " +
                          locksetStr(def.lockset, syms_));
      d.note(other.loc, std::string("concurrent ") +
                            (other.isWrite ? "write" : "read") +
                            " under lockset " +
                            locksetStr(other.lockset, syms_));
      notePts(d, def);
      notePts(d, other);
      noteMhp(d, e.from, e.to);
      report_.raceWitnesses.push_back(std::move(w));
    }
  }

  /// The writes that may happen in parallel with another access of their
  /// variable: per alias class (by symbol index), the nodes of the def
  /// ends of conflict edges whose ends may happen in parallel — the
  /// `from` end, and the `to` end of a DD edge. Empty for a class no such
  /// edge touches. Conflict edges are computed without the set/wait
  /// refinement (they drive dataflow); accesses with a guaranteed
  /// ordering cannot overlap, so their edges do not count here.
  std::vector<DynBitset> concurrentWrites() const {
    std::vector<DynBitset> writes(syms_.size());
    for (const pfg::ConflictEdge& e : graph_.conflicts) {
      DynBitset& w = writes[e.var.index()];
      if (w.size() != 0 && w.test(e.from.index()) &&
          (!e.toIsDef || w.test(e.to.index())))
        continue;
      if (!comp_.mhp().mayHappenInParallel(e.from, e.to)) continue;
      if (w.size() == 0) w = DynBitset(graph_.nodes().size());
      w.set(e.from.index());
      if (e.toIsDef) w.set(e.to.index());
    }
    return writes;
  }

  /// InconsistentLocking, one warning per variable: its concurrent
  /// writes (at least two) hold no common lock, and some of them hold
  /// one. A write that can overlap no other access cannot race, so the
  /// locks it holds say nothing about the discipline. One note per
  /// concurrent write.
  void checkInconsistentLocking() {
    const std::vector<DynBitset> writes = concurrentWrites();
    std::vector<SymbolId> common;
    for (const auto& [var, defs] : comp_.sites().defs) {
      const DynBitset& concurrent = writes[var.index()];
      if (concurrent.size() == 0) continue;
      // The locks every concurrent write holds. Each node's locks are
      // ascending and distinct, so membership is a binary search.
      const analysis::AccessSites::Def* first = nullptr;
      std::size_t count = 0;
      bool anyProtected = false;
      for (const auto& d : defs) {
        if (!concurrent.test(d.node.index())) continue;
        const std::span<const SymbolId> locks = structures_.locksAt(d.node);
        if (count++ == 0) {
          first = &d;
          common.assign(locks.begin(), locks.end());
        }
        anyProtected |= !locks.empty();
        std::erase_if(common, [&](SymbolId l) {
          return !std::binary_search(locks.begin(), locks.end(), l);
        });
      }
      if (count < 2 || !anyProtected || !common.empty()) continue;

      ++report_.inconsistentLocking;
      Diagnostic& w = diag_.warn(
          DiagCode::InconsistentLocking, first->stmt->loc,
          "writes to shared variable '" + syms_.nameOf(var) +
              "' are not consistently protected by the same lock");
      for (const auto& d : defs)
        if (concurrent.test(d.node.index()))
          w.note(d.stmt->loc, "write under lockset " +
                                  locksetStr(structures_.locksAt(d.node),
                                             syms_));
    }
  }

 public:
  /// SelfDeadlock and LockLeak over walks that no Unlock of the lock
  /// passes.
  void checkLockLifecycle() {
    const std::vector<DynBitset> held = dataflow::heldLocksOnEntry(graph_);
    dataflow::Walker walker(graph_);
    for (const pfg::Node& n : graph_.nodes()) {
      if (n.kind != pfg::NodeKind::Lock) continue;
      const SymbolId lock = n.syncStmt->sync;
      const auto holdsLock = dataflow::keepsHeld(lock);

      if (held[lock.index()].test(n.id.index())) {
        ++report_.selfDeadlocks;
        Diagnostic& d = diag_.warn(
            DiagCode::SelfDeadlock, n.syncStmt->loc,
            "lock('" + syms_.nameOf(lock) +
                "') may already be held when re-acquired here; locks are "
                "not reentrant, so the acquiring thread blocks forever");
        for (const pfg::Node& m : graph_.nodes()) {
          if (m.id == n.id || m.kind != pfg::NodeKind::Lock ||
              m.syncStmt->sync != lock)
            continue;
          if (walker.reaches(m.id, n.id, holdsLock)) {
            d.note(m.syncStmt->loc,
                   "acquired here and still held on some path to the "
                   "re-acquisition");
            break;
          }
        }
      }

      if (walker.reaches(n.id, graph_.exit, holdsLock)) {
        ++report_.lockLeaks;
        const bool inParallel = !n.threadPath.empty();
        diag_.warn(DiagCode::LockLeak, n.syncStmt->loc,
                   "lock('" + syms_.nameOf(lock) + "') is still held when " +
                       (inParallel ? "its thread ends"
                                   : "the program ends") +
                       " on some path: no unlock('" + syms_.nameOf(lock) +
                       "') executes on it");
      }
    }
  }

  /// Empty / redundant / over-wide mutex body lints.
  void checkMutexBodies() {
    const opt::LockIndependence independence(comp_);
    for (const mutex::MutexBody& b : structures_.bodies()) {
      const pfg::Node& lockNode = graph_.node(b.lockNode);
      const SourceLoc lockLoc = lockNode.syncStmt->loc;
      const std::string lockName = syms_.nameOf(b.lockVar);

      // Interior shape: the body's member nodes minus its own unlock.
      std::vector<const pfg::Node*> blocks;
      bool straightLine = true;
      std::size_t interiorStmts = 0;
      b.members.forEach([&](std::size_t idx) {
        const NodeId id{static_cast<NodeId::value_type>(idx)};
        if (id == b.unlockNode) return;
        const pfg::Node& n = graph_.node(id);
        if (n.kind == pfg::NodeKind::Block) {
          blocks.push_back(&n);
          interiorStmts += n.stmts.size();
          if (n.terminator != nullptr) {
            ++interiorStmts;
            straightLine = false;
          }
        } else {
          straightLine = false;  // nested sync/cobegin/barrier
          ++interiorStmts;
        }
      });

      if (interiorStmts == 0) {
        ++report_.emptyBodies;
        diag_.warn(DiagCode::EmptyMutexBody, lockLoc,
                   "mutex body of lock '" + lockName +
                       "' protects no statements")
            .note(locOf(graph_.node(b.unlockNode).syncStmt),
                  "unlocked here without any work in between");
        continue;
      }

      // Redundant / over-wide, via lock independence (Definition 5 — the
      // same legality LICM uses). Only meaningful on straight-line
      // single-block bodies, where statement order is unambiguous.
      if (!straightLine || blocks.size() != 1) continue;
      const std::span<ir::Stmt* const> stmts = blocks.front()->stmts;
      std::size_t prefix = 0;
      while (prefix < stmts.size() &&
             independence.isLockIndependent(*stmts[prefix]))
        ++prefix;
      std::size_t suffix = 0;
      while (suffix + prefix < stmts.size() &&
             independence.isLockIndependent(
                 *stmts[stmts.size() - 1 - suffix]))
        ++suffix;

      // Every interior statement is lock independent: nothing in the body
      // can be accessed concurrently, so the lock serializes nothing.
      if (prefix == stmts.size()) {
        ++report_.redundantBodies;
        diag_.warn(DiagCode::RedundantMutexBody, lockLoc,
                   "mutex body of lock '" + lockName +
                       "' contains only lock-independent statements; "
                       "the lock serializes nothing");
        continue;
      }
      if (prefix + suffix == 0) continue;
      ++report_.overwideBodies;
      Diagnostic& d = diag_.warn(
          DiagCode::OverwideMutexBody, lockLoc,
          "mutex body of lock '" + lockName + "' is wider than needed: " +
              std::to_string(prefix) + " leading and " +
              std::to_string(suffix) +
              " trailing statement(s) are lock independent");
      if (prefix > 0)
        d.note(stmts.front()->loc,
               "lock-independent prefix starts here");
      if (suffix > 0)
        d.note(stmts.back()->loc, "lock-independent suffix ends here");
    }
  }

  /// UnprotectedPiRead: surviving CSSAME π conflict arguments join the
  /// use's lockset against each concurrent reaching definition's.
  void checkPiReads() {
    const ssa::SsaForm& ssa = comp_.ssa();
    for (SsaNameId piId : ssa.livePis()) {
      const ssa::Definition& pi = ssa.def(piId);
      if (pi.piConflictArgs.empty()) continue;
      // One warning per π, witnessed by its first unprotected argument.
      for (const ssa::PiConflictArg& arg : pi.piConflictArgs) {
        if (!comp_.mhp().mayHappenInParallel(arg.fromNode, pi.node))
          continue;
        if (structures_.shareLock(pi.node, arg.fromNode)) continue;
        ++report_.unprotectedPiReads;
        Diagnostic& d = diag_.warn(
            DiagCode::UnprotectedPiRead, locOf(pi.piUseStmt),
            "read of shared variable '" + syms_.nameOf(pi.var) +
                "' (under lockset " +
                locksetStr(structures_.locksAt(pi.node), syms_) +
                ") can observe a concurrent write mutual exclusion "
                "does not order");
        d.note(locOf(arg.defStmt),
               "concurrent write under lockset " +
                   locksetStr(structures_.locksAt(arg.fromNode), syms_));
        noteMhp(d, arg.fromNode, pi.node);
        break;
      }
    }
  }

 private:
  const driver::Compilation& comp_;
  DiagEngine& diag_;
  const pfg::Graph& graph_;
  const ir::SymbolTable& syms_;
  const mutex::MutexStructures& structures_;
  std::unordered_map<StmtId, const ir::Stmt*> cobeginStmt_;
  CsanReport report_;
};

}  // namespace

CsanReport runLockChecks(const driver::Compilation& comp, DiagEngine& diag) {
  Csan csan(comp, diag);
  csan.checkLockDiscipline();
  return csan.take();
}

CsanReport runCsan(const driver::Compilation& comp, DiagEngine& diag) {
  Csan csan(comp, diag);
  csan.checkLockDiscipline();
  csan.checkLockLifecycle();
  csan.checkMutexBodies();
  csan.checkPiReads();
  return csan.take();
}

}  // namespace cssame::sanalysis
