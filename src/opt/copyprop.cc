#include "src/opt/copyprop.h"

#include <unordered_map>

namespace cssame::opt {

CopyPropStats propagateCopies(driver::Compilation& comp) {
  CopyPropStats stats;
  ssa::SsaForm& form = comp.ssa();
  const pfg::Graph& graph = comp.graph();
  const ir::SymbolTable& syms = comp.program().symbols;

  // Real definition count and the single definition (if unique) per var.
  std::unordered_map<SymbolId, std::size_t> defCount;
  std::unordered_map<SymbolId, const ssa::Definition*> singleDef;
  for (const ssa::Definition& d : form.defs) {
    if (d.kind != ssa::DefKind::Assign) continue;
    auto n = ++defCount[d.var];
    if (n == 1)
      singleDef[d.var] = &d;
    else
      singleDef.erase(d.var);
  }

  // Concurrent-definition check: shared variables with any conflict DD/DU
  // edge from a def are unstable; private and unconflicted shared vars
  // qualify. Conflict edges are keyed by alias-class representative.
  auto hasConcurrentDefs = [&](SymbolId v) {
    const SymbolId cls = graph.aliases.repOf(v);
    if (!graph.aliases.classShared(cls, syms)) return false;
    for (const pfg::ConflictEdge& e : graph.conflicts)
      if (e.var == cls) return true;  // some def of v is concurrent
    return false;
  };

  // Collect rewrites first (mutating VarRefs invalidates nothing
  // structurally, but keep the scan clean).
  struct Rewrite {
    ir::Expr* use;
    SymbolId to;
    SsaNameId newDef;
  };
  std::vector<Rewrite> rewrites;

  for (auto& [useExpr, defId] : form.useDef) {
    // Only a direct scalar read can be redirected; Deref/Index uses also
    // carry use-def links under alias-class keying but read a cell the
    // copy's lhs name does not determine.
    if (useExpr->kind != ir::ExprKind::VarRef) continue;
    const ssa::Definition& d = form.def(defId);
    if (d.kind != ssa::DefKind::Assign) continue;  // π-guarded or merged
    const ir::Stmt* copy = d.stmt;
    // The class def reaching this use must be a plain `x = y` of the very
    // symbol the use reads — a weak def of a sibling class member assigns
    // some other cell.
    if (copy->lhsKind != ir::LValueKind::Var || useExpr->var != copy->lhs)
      continue;
    if (copy->expr->kind != ir::ExprKind::VarRef) continue;  // not a copy
    const ir::Expr& rhs = *copy->expr;
    const SymbolId y = rhs.var;

    auto it = singleDef.find(y);
    if (it == singleDef.end()) continue;  // zero or multiple defs of y
    const ssa::Definition& dy = *it->second;
    if (hasConcurrentDefs(y)) continue;

    // The copy must itself read that unique definition (not the entry
    // value), and it must dominate the use site.
    auto rhsDef = form.useDef.find(&rhs);
    if (rhsDef == form.useDef.end() || rhsDef->second != dy.name) continue;

    rewrites.push_back(
        Rewrite{const_cast<ir::Expr*>(useExpr), y, dy.name});
  }

  // Resolve use → statement/node in one walk, then apply the dominance
  // filter and rewrite.
  std::unordered_map<const ir::Expr*, NodeId> nodeOfUse;
  for (const pfg::Node& n : graph.nodes()) {
    auto record = [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        if (e.kind == ir::ExprKind::VarRef) nodeOfUse[&e] = n.id;
      });
    };
    for (const ir::Stmt* s : n.stmts)
      if (s->expr) record(*s->expr);
    if (n.terminator != nullptr && n.terminator->expr)
      record(*n.terminator->expr);
  }

  for (const Rewrite& r : rewrites) {
    auto nodeIt = nodeOfUse.find(r.use);
    if (nodeIt == nodeOfUse.end()) continue;
    const ssa::Definition& dy = form.def(r.newDef);
    if (!comp.dom().dominates(dy.node, nodeIt->second)) continue;
    r.use->var = r.to;
    form.useDef[r.use] = r.newDef;  // keep the side table coherent
    ++stats.usesRewritten;
  }
  return stats;
}

}  // namespace cssame::opt
