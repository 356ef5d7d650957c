#include "src/ir/alias.h"

#include <algorithm>

namespace cssame::ir {

void AliasClasses::setPartition(std::vector<SymbolId> rep,
                                const SymbolTable& syms) {
  rep_ = std::move(rep);
  rep_.resize(syms.size());
  classSize_.clear();
  classShared_.clear();
  bool nontrivial = false;
  for (std::size_t i = 0; i < rep_.size(); ++i) {
    const SymbolId self{static_cast<SymbolId::value_type>(i)};
    if (!rep_[i].valid()) rep_[i] = self;
    if (rep_[i] != self) nontrivial = true;
    if (syms[self].kind != SymbolKind::Var) continue;
    ++classSize_[rep_[i]];
    if (syms.isSharedVar(self)) classShared_[rep_[i]] = true;
  }
  // A fully trivial partition with no deref sites is the identity — drop
  // the table so every consumer takes the scalar fast path.
  if (!nontrivial && derefLoad_.empty() && derefStore_.empty()) {
    rep_.clear();
    classSize_.clear();
    classShared_.clear();
  }
}

std::size_t AliasClasses::nonSingletonClasses() const {
  std::size_t n = 0;
  for (const auto& [rep, size] : classSize_)
    if (size > 1) ++n;
  return n;
}

bool usesDeref(const Program& prog) {
  bool found = false;
  forEachStmt(prog.body, [&](const Stmt& s) {
    if (found) return;
    if (s.lhsKind == LValueKind::Deref) found = true;
    forEachStmtExpr(s, [&](const Expr& root) {
      forEachExpr(root, [&](const Expr& e) {
        found |= e.kind == ExprKind::Deref;
      });
    });
  });
  return found;
}

AliasClasses conservativeClasses(const Program& prog) {
  AliasClasses out;
  if (!usesDeref(prog)) return out;

  // One mega-class: everything a pointer value can be derived from
  // syntactically — address-taken variables and arrays. Integer-valued
  // addresses (`*3`, function results) can reach any cell, but a deref
  // site is mapped per-site, and the refinement pass widens those to all
  // variables; for the conservative pre-pass the mega-class plus mapping
  // every deref to it is sound because *all* deref sites share one class,
  // so any two indirect accesses conflict with each other and with every
  // direct access to an address-taken location. Wild derefs can also hit
  // non-address-taken scalars, so those join the mega-class too.
  std::vector<SymbolId> members;
  for (const Symbol& s : prog.symbols.all())
    if (s.kind == SymbolKind::Var) members.push_back(s.id);
  if (members.empty()) return out;
  const SymbolId rep = *std::min_element(
      members.begin(), members.end(),
      [](SymbolId a, SymbolId b) { return a.index() < b.index(); });

  std::vector<SymbolId> table(prog.symbols.size());
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = SymbolId{static_cast<SymbolId::value_type>(i)};
  for (SymbolId m : members) table[m.index()] = rep;

  forEachStmt(prog.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::Assign && s.lhsKind == LValueKind::Deref)
      out.setDerefStore(&s, rep);
    forEachStmtExpr(s, [&](const Expr& root) {
      forEachExpr(root, [&](const Expr& e) {
        if (e.kind == ExprKind::Deref) out.setDerefLoad(&e, rep);
      });
    });
  });
  out.setPartition(std::move(table), prog.symbols);
  return out;
}

}  // namespace cssame::ir
