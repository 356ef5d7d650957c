// CSCC — Concurrent Sparse Conditional Constant propagation
// (paper Section 5.1; Lee/Midkiff/Padua 1997; Wegman–Zadeck 1991).
//
// Wegman–Zadeck propagation over the SSA names of the CSSAME form, on the
// generic dataflow::SparseConditional engine with CVRA's interval lattice
// (sanalysis/vrange.h). Its collapse-free rules make a singleton [v,v]
// exactly the constant v of the classic ⊤ / constant / ⊥ lattice, with the
// same ⊤ and the same executability, so CSCC folds the singletons. φ
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

#include "src/driver/pipeline.h"

namespace cssame::opt {

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

}  // namespace cssame::opt
