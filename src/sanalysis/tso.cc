#include "src/sanalysis/tso.h"

#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "src/dataflow/reach.h"
#include "src/ir/expr.h"
#include "src/sanalysis/csan.h"

namespace cssame::sanalysis {

namespace {

/// The statement performing the access a conflict-edge endpoint refers
/// to, looked up in the compilation's cached access sites.
const ir::Stmt* accessStmtAt(NodeId node, SymbolId var, bool isDef,
                             const analysis::AccessSites& sites) {
  if (isDef) {
    const analysis::AccessSites::Def* d = sites.defAt(node, var);
    return d != nullptr ? d->stmt : nullptr;
  }
  const analysis::AccessSites::Use* u = sites.useAt(node, var);
  return u != nullptr ? u->stmt : nullptr;
}

SourceLoc locOf(const ir::Stmt* stmt) {
  return stmt != nullptr ? stmt->loc : SourceLoc{};
}

/// True when the store and the load provably touch the same memory cell,
/// so the load forwards from the buffer instead of overtaking it: a
/// direct store/load of one scalar, or the same array with structurally
/// equal indices. A Deref store's target cell is statically unknown.
bool mustSameCell(const ir::Stmt& store, const ir::Expr& load) {
  if (store.lhsKind == ir::LValueKind::Var)
    return load.kind == ir::ExprKind::VarRef && load.var == store.lhs;
  if (store.lhsKind == ir::LValueKind::Index)
    return load.kind == ir::ExprKind::Index && load.var == store.lhs &&
           store.lhsAddr != nullptr &&
           ir::exprEquals(*store.lhsAddr, *load.operands[0]);
  return false;
}

class Tso {
 public:
  Tso(const driver::Compilation& comp, DiagEngine& diag)
      : comp_(comp),
        diag_(diag),
        graph_(comp.graph()),
        syms_(comp.graph().program().symbols),
        pending_(dataflow::pendingStoresOnEntry(comp.graph())) {
    for (const pfg::Node& n : graph_.nodes()) {
      if (n.kind == pfg::NodeKind::Cobegin && n.syncStmt != nullptr)
        cobeginStmt_[n.syncStmt->id] = n.syncStmt;
      if (n.kind != pfg::NodeKind::Block) continue;
      for (const ir::Stmt* s : n.stmts) {
        if (s->kind != ir::StmtKind::Assign || s->atomic) continue;
        const SymbolId cls = graph_.aliases.defTargetOf(*s);
        if (cls.valid() && graph_.aliases.classShared(cls, syms_))
          storeSite_[s->id] = StoreSite{s, n.id, cls};
      }
    }
  }

  TsoReport run() {
    checkReorderablePairs();
    checkFences();
    return std::move(report_);
  }

 private:
  /// A plain shared store statement, the block issuing it, and the alias
  /// class of the cell it targets.
  struct StoreSite {
    const ir::Stmt* stmt = nullptr;
    NodeId node;
    SymbolId cls;
  };
  /// One concurrent disjoint-lockset partner of a racy (node, var) access.
  struct RemoteSite {
    NodeId node;
    bool isDef = false;
  };

  /// A buffered reordering is only observable if some concurrent thread
  /// touches the variable without a common lock. Index every conflict-edge
  /// endpoint that has such a partner, keeping one witness partner each:
  /// (node, var) → the remote access that can see the stale/early value.
  /// Built by the first isRacy call, so a program in which no load sees a
  /// pending store and no fence drains one never walks its Ecf runs.
  void buildRacySites() {
    forEachUnprotectedConflict(comp_, [&](const pfg::ConflictEdge& e) {
      racy_.emplace(std::make_pair(e.from, e.var),
                    RemoteSite{e.to, e.toIsDef});
      racy_.emplace(std::make_pair(e.to, e.var), RemoteSite{e.from, true});
    });
  }

  [[nodiscard]] bool isRacy(NodeId node, SymbolId var) {
    if (!racyBuilt_) {
      buildRacySites();
      racyBuilt_ = true;
    }
    return racy_.count({node, var}) != 0;
  }

  /// Appends the MHP justification of a concurrent pair to a diagnostic:
  /// the cobegin whose sibling arms keep the two sites unordered.
  void noteMhp(Diagnostic& d, NodeId a, NodeId b) {
    const auto div = comp_.mhp().divergenceOf(a, b);
    if (!div) return;
    auto it = cobeginStmt_.find(div->cobegin);
    const SourceLoc loc =
        it != cobeginStmt_.end() ? it->second->loc : SourceLoc{};
    d.note(loc, "the threads run in arms " + std::to_string(div->armA) +
                    " and " + std::to_string(div->armB) +
                    " of this cobegin and may interleave");
  }

  /// The triangular-race check: a racy load of y with a program-order
  /// earlier plain store to x != y still in the window, where x also has
  /// a concurrent observer. Under TSO the load completes while the store
  /// is invisible, so a protocol reading y to conclude "the other thread
  /// saw my x" is unsound without a fence or atomics.
  void checkReorderablePairs() {
    for (const pfg::Node& n : graph_.nodes()) {
      if (n.kind != pfg::NodeKind::Block) continue;
      const std::vector<StmtId>& in = pending_[n.id.index()];
      std::set<StmtId> pending(in.begin(), in.end());
      auto checkUses = [&](const ir::Expr& e, const ir::Stmt* stmt) {
        ir::forEachExpr(e, [&](const ir::Expr& sub) {
          const SymbolId cls = graph_.aliases.useTargetOf(sub);
          if (cls.valid() && graph_.aliases.classShared(cls, syms_))
            checkLoad(n, stmt, cls, sub, pending);
        });
      };
      for (const ir::Stmt* s : n.stmts) {
        const bool atomic = s->kind == ir::StmtKind::Assign && s->atomic;
        if (atomic) pending.clear();  // buffer drained before it runs
        if (s->expr) checkUses(*s->expr, s);
        if (s->lhsAddr) checkUses(*s->lhsAddr, s);
        if (s->kind == ir::StmtKind::Assign && !atomic) {
          const SymbolId def = graph_.aliases.defTargetOf(*s);
          if (def.valid() && graph_.aliases.classShared(def, syms_))
            pending.insert(s->id);
        }
      }
      if (n.terminator != nullptr && n.terminator->expr)
        checkUses(*n.terminator->expr, n.terminator);
    }
  }

  void checkLoad(const pfg::Node& n, const ir::Stmt* loadStmt, SymbolId y,
                 const ir::Expr& loadExpr,
                 const std::set<StmtId>& pending) {
    if (pending.empty() || !isRacy(n.id, y)) return;
    for (StmtId w : pending) {
      const StoreSite& store = storeSite_.at(w);
      const SymbolId x = store.cls;
      // A load of the buffered cell itself forwards from the buffer (it
      // sees its own store); only provably-different-cell pairs reorder.
      if (mustSameCell(*store.stmt, loadExpr)) continue;
      if (!isRacy(store.node, x)) continue;
      if (!seen_.insert(std::make_tuple(w, n.id, y)).second) continue;

      ++report_.notJustified;
      report_.reorderedStores.insert(x);
      report_.overtakingLoads.insert(y);
      report_.witnesses.push_back(TsoWitness{x, y, store.node, n.id,
                                             store.stmt->loc, loadStmt->loc,
                                             store.stmt, loadStmt});

      Diagnostic& d = diag_.warn(
          DiagCode::MutualExclusionNotJustifiedUnderTSO, loadStmt->loc,
          "under TSO this read of shared variable '" + syms_.nameOf(y) +
              "' may complete while the thread's earlier store to '" +
              syms_.nameOf(x) +
              "' is still buffered; the store/load pair cannot justify "
              "mutual exclusion");
      d.note(store.stmt->loc,
             "plain store to '" + syms_.nameOf(x) +
                 "' issued here, with no fence, atomic access or lock "
                 "before the read");
      const RemoteSite& rx = racy_.at({store.node, x});
      d.note(locOf(accessStmtAt(rx.node, x, rx.isDef, comp_.sites())),
             std::string("a concurrent thread ") +
                 (rx.isDef ? "writes" : "reads") + " '" + syms_.nameOf(x) +
                 "' here and can miss the buffered value");
      const RemoteSite& ry = racy_.at({n.id, y});
      d.note(locOf(accessStmtAt(ry.node, y, ry.isDef, comp_.sites())),
             std::string("a concurrent thread ") +
                 (ry.isDef ? "writes" : "reads") + " '" + syms_.nameOf(y) +
                 "' here, making the early read observable");
      noteMhp(d, n.id, ry.node);
      d.note(SourceLoc{},
             "insert 'fence;' between the store and the read, or make the "
             "protocol accesses atomic_store/atomic_load");
    }
  }

  /// FenceRedundant: the incoming window is empty on every path, or none
  /// of the stores it may hold has a concurrent observer — the fence
  /// drains nothing another thread could see early.
  void checkFences() {
    for (const pfg::Node& n : graph_.nodes()) {
      if (n.kind != pfg::NodeKind::Fence) continue;
      const std::vector<StmtId>& in = pending_[n.id.index()];
      bool ordersRacyStore = false;
      for (StmtId w : in) {
        const StoreSite& store = storeSite_.at(w);
        if (isRacy(store.node, store.cls)) {
          ordersRacyStore = true;
          break;
        }
      }
      if (ordersRacyStore) continue;
      ++report_.redundantFences;
      report_.redundantFenceSites.push_back(locOf(n.syncStmt));
      diag_.warn(DiagCode::FenceRedundant, locOf(n.syncStmt),
                 in.empty()
                     ? "this fence has no buffered stores to order on any "
                       "path; it can be removed"
                     : "no store this fence drains can be observed by a "
                       "concurrent thread; the fence orders nothing that "
                       "races");
    }
  }

  const driver::Compilation& comp_;
  DiagEngine& diag_;
  const pfg::Graph& graph_;
  const ir::SymbolTable& syms_;
  /// The pending-store window on entry to each node.
  std::vector<std::vector<StmtId>> pending_;
  std::unordered_map<StmtId, const ir::Stmt*> cobeginStmt_;
  std::unordered_map<StmtId, StoreSite> storeSite_;
  std::map<std::pair<NodeId, SymbolId>, RemoteSite> racy_;
  bool racyBuilt_ = false;
  std::set<std::tuple<StmtId, NodeId, SymbolId>> seen_;
  TsoReport report_;
};

}  // namespace

TsoReport runTso(const driver::Compilation& comp, DiagEngine& diag) {
  return Tso(comp, diag).run();
}

}  // namespace cssame::sanalysis
