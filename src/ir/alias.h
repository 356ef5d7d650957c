// Alias classes: the partition of variable symbols the access index and
// every downstream concurrency analysis is keyed by.
//
// The paper's conflict-edge and π-placement machinery assumes exact
// symbol identity. Pointers and arrays break that assumption: `*p = e`
// may store to any location p can point to, and `a[i]` / `a[j]` touch the
// same array. An AliasClasses object restores a single-key world by
// partitioning all Var symbols into classes of may-aliased locations
// (array cells collapsed per array) and mapping every access — direct,
// indexed or through a pointer — to the SymbolId of its class
// representative (the lowest member id, so the mapping is deterministic).
//
// A default-constructed AliasClasses is the *identity* partition: every
// symbol is its own singleton class and there are no deref sites. Every
// consumer falls back to plain symbol keying in that case, which keeps
// scalar-only programs byte-identical to the pre-pointer pipeline.
//
// Two producers exist:
//   conservativeClasses()        syntactic pre-pass — one class over all
//                                address-taken variables and arrays; used
//                                to build the first CSSAME form a
//                                points-to solve needs (chicken and egg:
//                                π chains need an access index, the
//                                precise index needs points-to).
//   sanalysis::solvePointsTo()   Andersen-style refinement; unifies only
//                                what the pointer analysis says may
//                                actually alias, and records per-site
//                                deref targets.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/ir/program.h"

namespace cssame::ir {

class AliasClasses {
 public:
  /// Identity partition (scalar fast path).
  AliasClasses() = default;

  /// True when this is the identity partition.
  [[nodiscard]] bool identity() const { return rep_.empty(); }

  /// Class representative of a symbol (itself under identity).
  [[nodiscard]] SymbolId repOf(SymbolId s) const {
    if (rep_.empty() || s.index() >= rep_.size()) return s;
    const SymbolId r = rep_[s.index()];
    return r.valid() ? r : s;
  }

  /// True when the symbol's class has exactly one member. Strong-def
  /// reasoning (kills in the CSSAME rewrite, constant folding) is only
  /// valid for singleton classes.
  [[nodiscard]] bool singleton(SymbolId s) const {
    if (rep_.empty() || s.index() >= rep_.size()) return true;
    auto it = classSize_.find(repOf(s));
    return it == classSize_.end() || it->second <= 1;
  }

  /// True when the class of `rep` contains a shared variable — the access
  /// index collects a class as soon as any member can be touched by
  /// another thread.
  [[nodiscard]] bool classShared(SymbolId s, const SymbolTable& syms) const {
    if (rep_.empty()) return syms.isSharedVar(s);
    auto it = classShared_.find(repOf(s));
    return it != classShared_.end() ? it->second : syms.isSharedVar(s);
  }

  // --- per-site deref targets ---------------------------------------------

  /// Class accessed by a Deref *load* expression, or an invalid id when
  /// the pointer can never hold a valid address (the load then reads 0 at
  /// runtime and touches no location).
  [[nodiscard]] SymbolId derefLoadClass(const Expr* e) const {
    auto it = derefLoad_.find(e);
    return it == derefLoad_.end() ? SymbolId{} : it->second;
  }

  /// Class accessed by a Deref *store* statement (`*p = e`), or invalid
  /// (the store is then always dropped at runtime).
  [[nodiscard]] SymbolId derefStoreClass(const Stmt* s) const {
    auto it = derefStore_.find(s);
    return it == derefStore_.end() ? SymbolId{} : it->second;
  }

  // --- access targets ------------------------------------------------------

  /// Class key an Assign statement defines, or an invalid id when it
  /// defines nothing (a Deref store with an empty points-to set, or a
  /// non-Assign statement).
  [[nodiscard]] SymbolId defTargetOf(const Stmt& s) const {
    if (s.kind != StmtKind::Assign) return SymbolId{};
    switch (s.lhsKind) {
      case LValueKind::Var:
      case LValueKind::Index:
        return repOf(s.lhs);
      case LValueKind::Deref:
        return derefStoreClass(&s);
    }
    return SymbolId{};
  }

  /// True when the Assign overwrites its whole class: a scalar store to a
  /// singleton class. Index stores write one cell of a collapsed array
  /// and Deref stores one member of a multi-symbol class, so neither may
  /// kill earlier values.
  [[nodiscard]] bool strongDef(const Stmt& s) const {
    return s.kind == StmtKind::Assign && s.lhsKind == LValueKind::Var &&
           singleton(s.lhs);
  }

  /// Class key a VarRef / Index / Deref expression reads, or invalid for
  /// non-reading kinds (and empty-points-to derefs).
  [[nodiscard]] SymbolId useTargetOf(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::VarRef:
      case ExprKind::Index:
        return repOf(e.var);
      case ExprKind::Deref:
        return derefLoadClass(&e);
      default:
        return SymbolId{};
    }
  }

  // --- construction (points-to refinement / conservative pre-pass) --------

  /// Installs the partition: `rep[i]` is the representative of symbol i
  /// (invalid entries default to identity). Recomputes class sizes and
  /// shared flags.
  void setPartition(std::vector<SymbolId> rep, const SymbolTable& syms);

  void setDerefLoad(const Expr* e, SymbolId rep) { derefLoad_[e] = rep; }
  void setDerefStore(const Stmt* s, SymbolId rep) { derefStore_[s] = rep; }

  /// Number of non-singleton classes (0 under identity).
  [[nodiscard]] std::size_t nonSingletonClasses() const;

 private:
  std::vector<SymbolId> rep_;  ///< empty = identity
  std::unordered_map<SymbolId, std::uint32_t> classSize_;
  std::unordered_map<SymbolId, bool> classShared_;
  std::unordered_map<const Expr*, SymbolId> derefLoad_;
  std::unordered_map<const Stmt*, SymbolId> derefStore_;
};

/// True when the program contains a Deref (load or store). Array-only
/// programs need no points-to refinement: `a[i]` names its array
/// syntactically.
[[nodiscard]] bool usesDeref(const Program& prog);

/// Syntactic conservative partition: one class containing every
/// address-taken variable and every array, with every Deref site mapped
/// to it. Sound input for the first CSSAME build of a pointer program;
/// returns identity when the program has no Deref.
[[nodiscard]] AliasClasses conservativeClasses(const Program& prog);

}  // namespace cssame::ir
