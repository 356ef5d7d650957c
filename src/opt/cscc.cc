#include "src/opt/cscc.h"

#include <utility>
#include <vector>

#include "src/sanalysis/vrange.h"
#include "src/support/status.h"

namespace cssame::opt {

namespace {

/// Recursively folds constant subexpressions in place.
void foldExpr(ir::Expr& e) {
  for (auto& op : e.operands) foldExpr(*op);
  auto allConst = [&] {
    for (const auto& op : e.operands)
      if (op->kind != ir::ExprKind::IntConst) return false;
    return true;
  };
  if (e.kind == ir::ExprKind::Unary && allConst()) {
    const long long v = ir::evalUnOp(e.unop, e.operands[0]->intValue);
    e.kind = ir::ExprKind::IntConst;
    e.intValue = v;
    e.operands.clear();
  } else if (e.kind == ir::ExprKind::Binary && allConst()) {
    const long long v = ir::evalBinOp(e.binop, e.operands[0]->intValue,
                                      e.operands[1]->intValue);
    e.kind = ir::ExprKind::IntConst;
    e.intValue = v;
    e.operands.clear();
  }
}

class Rewriter {
 public:
  Rewriter(driver::Compilation& comp, const sanalysis::VrangeSolver& solver,
           ConstPropStats& stats)
      : comp_(comp), solver_(solver), stats_(stats) {}

  void run() {
    replaceConstantUses();
    removeUnreachable(comp_.program().body);
    flattenConstantBranches();
  }

 private:
  void replaceConstantUses() {
    ssa::SsaForm& form = comp_.ssa();
    // Collect first: mutating an Expr invalidates nothing structurally,
    // but we must not re-visit rewritten nodes.
    std::vector<std::pair<ir::Expr*, long long>> rewrites;
    auto scan = [&](ir::Expr& root) {
      ir::forEachExpr(root, [&](ir::Expr& e) {
        if (e.kind != ir::ExprKind::VarRef) return;
        auto it = form.useDef.find(&e);
        if (it == form.useDef.end()) return;
        const sanalysis::Interval& v = solver_.value(it->second);
        if (v.isSingleton()) rewrites.emplace_back(&e, v.lo);
      });
    };
    ir::forEachStmt(comp_.program().body, [&](ir::Stmt& s) {
      if (s.expr) scan(*s.expr);
    });
    for (auto& [e, v] : rewrites) {
      e->kind = ir::ExprKind::IntConst;
      e->intValue = v;
      e->operands.clear();
      ++stats_.usesReplaced;
    }
    // Fold now-constant subtrees.
    ir::forEachStmt(comp_.program().body, [&](ir::Stmt& s) {
      if (s.expr) foldExpr(*s.expr);
    });
  }

  void removeUnreachable(ir::StmtList& list) {
    for (auto it = list.begin(); it != list.end();) {
      ir::Stmt& s = **it;
      const NodeId n = comp_.graph().nodeOf(&s);
      if (n.valid() && !solver_.nodeExecutable(n)) {
        stats_.unreachableRemoved += 1 + ir::countStmts(s.thenBody) +
                                     ir::countStmts(s.elseBody);
        for (const auto& t : s.threads)
          stats_.unreachableRemoved += ir::countStmts(t.body);
        it = list.erase(it);
        continue;
      }
      removeUnreachable(s.thenBody);
      removeUnreachable(s.elseBody);
      for (auto& t : s.threads) removeUnreachable(t.body);
      ++it;
    }
  }

  void flattenConstantBranches() {
    // One structural edit per iteration; lists shift underneath us, so
    // restart the scan after each change.
    bool changed = true;
    while (changed) {
      changed = false;
      flattenIn(comp_.program().body, changed);
    }
  }

  void flattenIn(ir::StmtList& list, bool& changed) {
    for (std::size_t i = 0; i < list.size() && !changed; ++i) {
      ir::Stmt& s = *list[i];
      if ((s.kind == ir::StmtKind::If || s.kind == ir::StmtKind::While) &&
          s.expr->kind == ir::ExprKind::IntConst) {
        const bool taken = s.expr->intValue != 0;
        if (s.kind == ir::StmtKind::If) {
          ir::StmtList body = std::move(taken ? s.thenBody : s.elseBody);
          list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(i),
                      std::make_move_iterator(body.begin()),
                      std::make_move_iterator(body.end()));
          ++stats_.branchesResolved;
          changed = true;
          return;
        }
        if (!taken) {  // while (false): the body is unreachable
          list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
          ++stats_.branchesResolved;
          changed = true;
          return;
        }
        // while (true): kept as-is (normal non-termination semantics).
      }
      flattenIn(s.thenBody, changed);
      flattenIn(s.elseBody, changed);
      for (auto& t : s.threads) flattenIn(t.body, changed);
    }
  }

  driver::Compilation& comp_;
  const sanalysis::VrangeSolver& solver_;
  ConstPropStats& stats_;
};

ConstPropStats runCscc(driver::Compilation& comp, bool rewrite) {
  sanalysis::VrangeSolver solver(comp.graph(), comp.ssa(), {});
  const Status status = solver.solve();
  CSSAME_CHECK(status.ok(), "cscc solver exceeded its iteration budget");

  ConstPropStats stats;
  for (const ssa::Definition& d : comp.ssa().defs) {
    if (d.removed || d.kind != ssa::DefKind::Assign) continue;
    if (solver.value(d.name).isSingleton()) ++stats.constantDefs;
  }
  if (rewrite) {
    Rewriter(comp, solver, stats).run();
  } else {
    // Count what a rewrite would do, without doing it.
    for (const pfg::Node& n : comp.graph().nodes()) {
      auto countUses = [&](const ir::Expr& root) {
        ir::forEachExpr(root, [&](const ir::Expr& e) {
          if (e.kind != ir::ExprKind::VarRef) return;
          auto it = comp.ssa().useDef.find(&e);
          if (it != comp.ssa().useDef.end() &&
              solver.value(it->second).isSingleton())
            ++stats.usesReplaced;
        });
      };
      for (const ir::Stmt* s : n.stmts)
        if (s->expr) countUses(*s->expr);
      if (n.terminator != nullptr && n.terminator->expr)
        countUses(*n.terminator->expr);
    }
  }
  return stats;
}

}  // namespace

ConstPropStats propagateConstants(driver::Compilation& comp) {
  return runCscc(comp, /*rewrite=*/true);
}

ConstPropStats analyzeConstants(driver::Compilation& comp) {
  return runCscc(comp, /*rewrite=*/false);
}

}  // namespace cssame::opt
