#include "src/opt/licm_expr.h"

#include "src/ir/parent_map.h"
#include "src/opt/lock_independence.h"

namespace cssame::opt {

namespace {

/// Number of operator nodes in an expression (hoisting pay-off measure).
std::size_t opCount(const ir::Expr& e) {
  std::size_t n = 0;
  ir::forEachExpr(e, [&](const ir::Expr& sub) {
    n += sub.kind == ir::ExprKind::Unary || sub.kind == ir::ExprKind::Binary;
  });
  return n;
}

class ExprHoister {
 public:
  explicit ExprHoister(driver::Compilation& comp)
      : comp_(comp), graph_(comp.graph()), independence_(comp) {}

  ExprHoistStats run() {
    struct Span {
      ir::Stmt* lockStmt;
      ir::Stmt* unlockStmt;
    };
    std::vector<Span> spans;
    for (const mutex::MutexBody& b : comp_.mutexes().bodies())
      spans.push_back(Span{graph_.node(b.lockNode).syncStmt,
                           graph_.node(b.unlockNode).syncStmt});
    for (const Span& s : spans) processBody(s.lockStmt, s.unlockStmt);
    return stats_;
  }

 private:
  void processBody(ir::Stmt* lockStmt, ir::Stmt* unlockStmt) {
    ir::ParentMap parents(comp_.program());
    const ir::ParentInfo& li = parents.info(lockStmt);
    const ir::ParentInfo& ui = parents.info(unlockStmt);
    if (li.list != ui.list) return;
    ir::StmtList& list = *li.list;

    auto indexOf = [&](const ir::Stmt* s) -> std::ptrdiff_t {
      for (std::size_t i = 0; i < list.size(); ++i)
        if (list[i].get() == s) return static_cast<std::ptrdiff_t>(i);
      return -1;
    };

    const std::ptrdiff_t lo = indexOf(lockStmt);
    std::ptrdiff_t hi = indexOf(unlockStmt);
    if (lo < 0 || hi <= lo) return;

    // Variables (re)defined by interior statements seen so far: hoisted
    // expressions must not read them (their value at the pre-mutex node
    // would differ). Event syncs end the scan, matching statement LICM.
    VarSet definedSoFar;
    std::vector<ir::StmtPtr> hoistedTemps;

    for (std::ptrdiff_t k = lo + 1; k < hi; ++k) {
      ir::Stmt& s = *list[static_cast<std::size_t>(k)];
      if (s.kind == ir::StmtKind::Set || s.kind == ir::StmtKind::Wait ||
          s.kind == ir::StmtKind::Barrier || s.kind == ir::StmtKind::Fence)
        break;

      const AccessSummary own = summarizeSubtree(s);
      // A pointer access touches a cell `definedSoFar` cannot name;
      // nothing may hoist across it.
      if (own.indirection) break;

      if (s.expr && s.kind != ir::StmtKind::Assert) {
        // For compound statements the expression re-evaluates, so its
        // inputs must also be stable across the whole subtree.
        VarSet forbidden = definedSoFar;
        if (s.kind == ir::StmtKind::If || s.kind == ir::StmtKind::While) {
          for (SymbolId v : own.defs) forbidden.insert(v);
        }
        const NodeId site = graph_.nodeOf(&s);
        if (site.valid()) hoistMax(*s.expr, site, forbidden, hoistedTemps);
      }

      for (SymbolId v : own.defs) definedSoFar.insert(v);
    }

    // Land the temporaries at the pre-mutex node, in evaluation order.
    std::ptrdiff_t at = indexOf(lockStmt);
    for (auto& temp : hoistedTemps) {
      list.insert(list.begin() + at, std::move(temp));
      ++at;
    }
  }

  /// Replaces maximal hoistable subexpressions of `e` (in place) with
  /// references to fresh temporaries; appends the temp definitions.
  void hoistMax(ir::Expr& e, NodeId site, const VarSet& forbidden,
                std::vector<ir::StmtPtr>& out) {
    if (hoistable(e, site, forbidden)) {
      const std::size_t ops = opCount(e);
      const SymbolId temp = comp_.program().symbols.create(
          "li" + std::to_string(tempCounter_++), ir::SymbolKind::Var,
          /*shared=*/false);
      auto def = comp_.program().newStmt(ir::StmtKind::Assign, e.loc);
      def->lhs = temp;
      def->expr = std::make_unique<ir::Expr>(std::move(e));
      out.push_back(std::move(def));

      e = ir::Expr{};  // moved-from; rebuild as the temp reference
      e.kind = ir::ExprKind::VarRef;
      e.var = temp;

      ++stats_.exprsHoisted;
      stats_.opsHoisted += ops;
      return;
    }
    for (auto& op : e.operands) hoistMax(*op, site, forbidden, out);
  }

  [[nodiscard]] bool hoistable(const ir::Expr& e, NodeId site,
                               const VarSet& forbidden) {
    // Only operator nodes over at least one variable pay for a
    // temporary (all-constant trees are the constant folder's job).
    if (e.kind != ir::ExprKind::Unary && e.kind != ir::ExprKind::Binary)
      return false;
    bool hasVar = false;
    ir::forEachExpr(e, [&](const ir::Expr& sub) {
      hasVar |= sub.kind == ir::ExprKind::VarRef;
    });
    if (!hasVar) return false;
    if (!independence_.isExprLockIndependent(e, site)) return false;
    bool clean = true;
    ir::forEachExpr(e, [&](const ir::Expr& sub) {
      if ((sub.kind == ir::ExprKind::VarRef ||
           sub.kind == ir::ExprKind::Index) &&
          forbidden.contains(sub.var))
        clean = false;
    });
    return clean;
  }

  driver::Compilation& comp_;
  pfg::Graph& graph_;
  LockIndependence independence_;
  ExprHoistStats stats_;
  int tempCounter_ = 0;
};

}  // namespace

ExprHoistStats hoistLockIndependentExpressions(driver::Compilation& comp) {
  return ExprHoister(comp).run();
}

}  // namespace cssame::opt
