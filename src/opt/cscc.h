// CSCC — Concurrent Sparse Conditional Constant propagation
// (paper Section 5.1; Lee/Midkiff/Padua 1997; Wegman–Zadeck 1991).
//
// The classic SCC lattice (⊤ / constant / ⊥) runs over the SSA names of
// the CSSAME form, on the generic dataflow::SparseConditional engine. φ
// terms meet over arguments whose incoming control edge is executable; π
// terms meet their control argument with every conflict argument whose
// defining node is executable. Because CSSAME removes π arguments that
// mutual exclusion proves unreachable, programs like Figure 2 fold
// completely inside the locked region (Figure 4b), while plain CSSA
// propagates nothing there (Figure 4a).
//
// After the fixpoint the IR is rewritten:
//   - uses with constant values are replaced by literals,
//   - fully constant expressions are folded,
//   - unreachable statements are deleted,
//   - `if` statements with constant conditions are flattened into the
//     taken branch, and `while (false)` loops are removed.
#pragma once

#include "src/dataflow/sccp.h"
#include "src/driver/pipeline.h"

namespace cssame::opt {

// --- The constant lattice, exported for cross-checking clients ------------
//
// The value-range analysis (sanalysis/vrange) is differentially tested
// against this lattice: every Const here must be a width-0 interval there
// and vice versa, so the lattice type and the analysis-only entry point
// are public.

enum class ConstKind : std::uint8_t { Top, Const, Bottom };

struct ConstValue {
  ConstKind kind = ConstKind::Top;
  long long value = 0;

  static ConstValue top() { return {ConstKind::Top, 0}; }
  static ConstValue constant(long long v) { return {ConstKind::Const, v}; }
  static ConstValue bottom() { return {ConstKind::Bottom, 0}; }

  friend bool operator==(const ConstValue& a, const ConstValue& b) {
    return a.kind == b.kind &&
           (a.kind != ConstKind::Const || a.value == b.value);
  }
};

/// Domain plugin for dataflow::SparseConditional (see the concept sketch
/// in dataflow/sccp.h).
struct ConstDomain {
  [[nodiscard]] const char* name() const { return "cscc"; }
  using Value = ConstValue;

  [[nodiscard]] Value top() const { return ConstValue::top(); }
  [[nodiscard]] Value constant(long long v) const {
    return ConstValue::constant(v);
  }
  [[nodiscard]] Value unknown() const { return ConstValue::bottom(); }

  [[nodiscard]] Value meet(const Value& a, const Value& b) const {
    if (a.kind == ConstKind::Top) return b;
    if (b.kind == ConstKind::Top) return a;
    if (a.kind == ConstKind::Bottom || b.kind == ConstKind::Bottom)
      return ConstValue::bottom();
    return a.value == b.value ? a : ConstValue::bottom();
  }

  [[nodiscard]] Value evalUnary(ir::UnOp op, const Value& v) const {
    if (v.kind != ConstKind::Const) return v;
    return ConstValue::constant(ir::evalUnOp(op, v.value));
  }
  [[nodiscard]] Value evalBinary(ir::BinOp op, const Value& a,
                                 const Value& b) const {
    if (a.kind == ConstKind::Bottom || b.kind == ConstKind::Bottom)
      return ConstValue::bottom();
    if (a.kind == ConstKind::Top || b.kind == ConstKind::Top)
      return ConstValue::top();
    return ConstValue::constant(ir::evalBinOp(op, a.value, b.value));
  }

  [[nodiscard]] dataflow::BranchVerdict branch(const Value& cond) const {
    switch (cond.kind) {
      case ConstKind::Top: return dataflow::BranchVerdict::Unknown;
      case ConstKind::Bottom: return dataflow::BranchVerdict::Both;
      case ConstKind::Const:
        return cond.value != 0 ? dataflow::BranchVerdict::TrueOnly
                               : dataflow::BranchVerdict::FalseOnly;
    }
    return dataflow::BranchVerdict::Both;
  }

  /// Finite lattice (height 2): no widening needed.
  [[nodiscard]] Value widen(const Value&, const Value& next,
                            std::uint32_t) const {
    return next;
  }
};

using ConstSolver = dataflow::SparseConditional<ConstDomain>;

struct ConstPropStats {
  std::size_t constantDefs = 0;      ///< Assign defs proven constant
  std::size_t usesReplaced = 0;      ///< VarRefs rewritten to literals
  std::size_t branchesResolved = 0;  ///< If/While with constant condition
  std::size_t unreachableRemoved = 0;
  [[nodiscard]] bool changedIr() const {
    return usesReplaced + branchesResolved + unreachableRemoved > 0;
  }
};

/// Runs the analysis and rewrites the program in place. The Compilation is
/// stale afterwards whenever `changedIr()`; re-analyze before further use.
ConstPropStats propagateConstants(driver::Compilation& comp);

/// Analysis-only variant: returns the statistics without touching the IR
/// (used by benchmarks comparing CSSA vs CSSAME precision).
ConstPropStats analyzeConstants(driver::Compilation& comp);

/// Analysis-only variant exposing the full solved lattice: per-SSA-name
/// constant values plus node executability. The value-range analysis
/// cross-checks its intervals against this.
[[nodiscard]] ConstSolver analyzeConstantsLattice(
    const driver::Compilation& comp);

}  // namespace cssame::opt
