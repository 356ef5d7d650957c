// Lock independence (paper Definition 5), shared by LICM, the
// expression-hoisting extension and the critical-section reports.
//
// A statement (or expression) is lock independent when no variable it
// defines or uses can be accessed concurrently: it computes the same
// value whether or not the enclosing lock is held.
#pragma once

#include <unordered_set>

#include "src/driver/pipeline.h"

namespace cssame::opt {

using VarSet = std::unordered_set<SymbolId>;

/// Definition/use summary of a statement subtree, plus its movability
/// (false when the subtree contains calls, synchronization or cobegins).
struct AccessSummary {
  VarSet defs;
  VarSet uses;
  bool movable = true;
  /// The subtree loads or stores through a pointer. The touched cell is
  /// statically uncertain, so symbol-keyed def/use intersection cannot
  /// prove motion past it safe — callers treat such a statement as a
  /// hard barrier (and `movable` is false as well).
  bool indirection = false;
};

[[nodiscard]] AccessSummary summarizeSubtree(const ir::Stmt& s);

[[nodiscard]] bool setsIntersect(const VarSet& a, const VarSet& b);

/// Answers lock-independence queries against one Compilation's MHP
/// relation and access sites.
class LockIndependence {
 public:
  explicit LockIndependence(const driver::Compilation& comp)
      : comp_(comp), sites_(comp.sites()) {}

  /// Definition 5 for a whole statement subtree located via nodeOf().
  /// Walks the subtree and asks the MHP tables about each access in
  /// place; it builds no summary sets.
  [[nodiscard]] bool isLockIndependent(const ir::Stmt& s) const;

  /// A single variable observed at `site`: true when no concurrent
  /// definition exists (reads), optionally also no concurrent use
  /// (writes).
  [[nodiscard]] bool varFreeOfConcurrentDefs(SymbolId v, NodeId site) const;
  [[nodiscard]] bool varFreeOfConcurrentAccess(SymbolId v,
                                               NodeId site) const;

  /// An expression evaluated at `site` is lock independent when it is
  /// call-free and none of its variables can be concurrently defined.
  [[nodiscard]] bool isExprLockIndependent(const ir::Expr& e,
                                           NodeId site) const;

  [[nodiscard]] const analysis::AccessSites& sites() const { return sites_; }

 private:
  const driver::Compilation& comp_;
  const analysis::AccessSites& sites_;
};

}  // namespace cssame::opt
