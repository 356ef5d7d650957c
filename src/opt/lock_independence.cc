#include "src/opt/lock_independence.h"

namespace cssame::opt {

namespace {

/// Motion constraints of one statement's own accesses.
struct StmtShape {
  bool movable = true;
  bool indirection = false;  ///< see AccessSummary::indirection
};

/// Calls use(v) for every variable `e` reads by name and records pointer
/// loads and calls in `shape`.
template <typename UseFn>
void visitExpr(const ir::Expr& e, StmtShape& shape, UseFn& use) {
  ir::forEachExpr(e, [&](const ir::Expr& sub) {
    if (sub.kind == ir::ExprKind::VarRef) use(sub.var);
    if (sub.kind == ir::ExprKind::Index) use(sub.var);
    if (sub.kind == ir::ExprKind::Deref) {
      // The loaded cell is statically uncertain; pin the statement and
      // tell callers their symbol-keyed barriers don't cover it.
      shape.movable = false;
      shape.indirection = true;
    }
    if (sub.kind == ir::ExprKind::Call) shape.movable = false;
  });
}

/// Visits one statement's own accesses (no recursion): use(v) for every
/// variable it reads, def(v) for the one it writes by name.
template <typename UseFn, typename DefFn>
StmtShape visitStmtAccesses(const ir::Stmt& s, UseFn&& use, DefFn&& def) {
  StmtShape shape;
  switch (s.kind) {
    case ir::StmtKind::Assign:
      if (s.lhsKind == ir::LValueKind::Deref) {
        // A pointer store's target cell is statically uncertain.
        shape.movable = false;
        shape.indirection = true;
      } else {
        def(s.lhs);
      }
      if (s.lhsAddr) visitExpr(*s.lhsAddr, shape, use);
      visitExpr(*s.expr, shape, use);
      // Atomic accesses carry TSO ordering; moving one changes which
      // stores are visible to other threads at that point.
      if (s.atomic) shape.movable = false;
      break;
    case ir::StmtKind::Print:
    case ir::StmtKind::If:
    case ir::StmtKind::While:
      visitExpr(*s.expr, shape, use);
      break;
    case ir::StmtKind::Assert:
      // Keep asserts pinned: moving one out of a critical section changes
      // which interleavings it can observe.
      visitExpr(*s.expr, shape, use);
      shape.movable = false;
      break;
    case ir::StmtKind::CallStmt:
    case ir::StmtKind::Lock:
    case ir::StmtKind::Unlock:
    case ir::StmtKind::Set:
    case ir::StmtKind::Wait:
    case ir::StmtKind::Barrier:
    case ir::StmtKind::Fence:
    case ir::StmtKind::Cobegin:
      shape.movable = false;
      break;
  }
  return shape;
}

/// True when pred holds for `s` and every statement nested in it; stops
/// at the first statement it fails on.
template <typename Pred>
bool allInSubtree(const ir::Stmt& s, Pred&& pred) {
  if (!pred(s)) return false;
  auto all = [&](const ir::StmtList& list) {
    for (const auto& c : list)
      if (!allInSubtree(*c, pred)) return false;
    return true;
  };
  if (!all(s.thenBody) || !all(s.elseBody)) return false;
  for (const auto& t : s.threads)
    if (!all(t.body)) return false;
  return true;
}

}  // namespace

AccessSummary summarizeSubtree(const ir::Stmt& s) {
  AccessSummary out;
  allInSubtree(s, [&](const ir::Stmt& stmt) {
    const StmtShape shape = visitStmtAccesses(
        stmt, [&](SymbolId v) { out.uses.insert(v); },
        [&](SymbolId v) { out.defs.insert(v); });
    out.movable &= shape.movable;
    out.indirection |= shape.indirection;
    return true;
  });
  return out;
}

bool setsIntersect(const VarSet& a, const VarSet& b) {
  for (SymbolId v : a)
    if (b.contains(v)) return true;
  return false;
}

bool LockIndependence::varFreeOfConcurrentDefs(SymbolId v,
                                               NodeId site) const {
  // Access sites are keyed by alias-class representative; a sibling
  // member's deref store counts as a concurrent definition of v.
  const ir::AliasClasses& aliases = comp_.graph().aliases;
  const SymbolId cls = aliases.repOf(v);
  if (!aliases.classShared(cls, comp_.program().symbols)) return true;
  auto it = sites_.defs.find(cls);
  if (it == sites_.defs.end()) return true;
  for (const auto& d : it->second)
    if (comp_.mhp().mayHappenInParallel(d.node, site)) return false;
  return true;
}

bool LockIndependence::varFreeOfConcurrentAccess(SymbolId v,
                                                 NodeId site) const {
  if (!varFreeOfConcurrentDefs(v, site)) return false;
  const ir::AliasClasses& aliases = comp_.graph().aliases;
  const SymbolId cls = aliases.repOf(v);
  if (!aliases.classShared(cls, comp_.program().symbols)) return true;
  auto it = sites_.uses.find(cls);
  if (it == sites_.uses.end()) return true;
  for (const auto& u : it->second)
    if (comp_.mhp().mayHappenInParallel(u.node, site)) return false;
  return true;
}

bool LockIndependence::isLockIndependent(const ir::Stmt& s) const {
  return allInSubtree(s, [&](const ir::Stmt& stmt) {
    const NodeId site = comp_.graph().nodeOf(&stmt);
    bool independent = site.valid();
    // Uses need protection from concurrent writes; definitions also from
    // concurrent reads (Theorem 3: a moved write must not become visible
    // to a concurrent reader at a different time).
    const StmtShape shape = visitStmtAccesses(
        stmt,
        [&](SymbolId v) {
          independent = independent && varFreeOfConcurrentDefs(v, site);
        },
        [&](SymbolId v) {
          independent = independent && varFreeOfConcurrentAccess(v, site);
        });
    return independent && shape.movable;
  });
}

bool LockIndependence::isExprLockIndependent(const ir::Expr& e,
                                             NodeId site) const {
  if (ir::containsCall(e)) return false;
  bool independent = true;
  ir::forEachExpr(e, [&](const ir::Expr& sub) {
    if (sub.kind == ir::ExprKind::Deref) independent = false;
    if (sub.kind == ir::ExprKind::VarRef || sub.kind == ir::ExprKind::Index)
      independent &= varFreeOfConcurrentDefs(sub.var, site);
  });
  return independent;
}

}  // namespace cssame::opt
