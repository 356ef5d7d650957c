// The combined optimization pipeline: simplify → CSCC → copy propagation
// → PDCE → LICM → lock-independent expression hoisting, iterated to a
// fixpoint (each pass can expose opportunities for the others, exactly as
// in the paper's Figure 4 → 5a → 5b progression). The pass list is fixed:
// every pass runs on every iteration.
#pragma once

#include "src/opt/copyprop.h"
#include "src/opt/cscc.h"
#include "src/opt/licm.h"
#include "src/opt/licm_expr.h"
#include "src/opt/pdce.h"
#include "src/opt/simplify.h"

namespace cssame::opt {

struct OptimizeOptions {
  /// Use CSSAME (π rewriting). Disable for the CSSA-only ablation.
  bool cssame = true;
  int maxIterations = 8;
  /// Hardened mode: after every pass re-run the ir/pfg/ssa verifiers plus
  /// the CSSAME ⊆ CSSA reaching-definition consistency check; violations
  /// become structured diagnostics naming the offending pass and stop the
  /// pipeline (see docs/ROBUSTNESS.md).
  bool verifyEachPass = false;
};

struct OptimizeReport {
  SimplifyStats simplify;    ///< accumulated over all iterations
  ConstPropStats constProp;
  CopyPropStats copyProp;
  DceStats deadCode;
  LicmStats lockMotion;
  ExprHoistStats exprMotion;
  int iterations = 0;
};

/// Outcome of the hardened optimizer entry point. `status` is the first
/// fault encountered (its `pass` field names the offending pass); `diag`
/// carries one structured error diagnostic per violation. When !ok() the
/// program may hold the partial result of the passes that ran before the
/// fault — callers must treat it as suspect.
struct OptimizeResult {
  OptimizeReport report;
  Status status;
  DiagEngine diag;

  [[nodiscard]] bool ok() const { return status.ok(); }
};

/// Optimizes the program in place and returns accumulated statistics.
/// Trusted-input convenience wrapper over optimizeProgramChecked(); any
/// pass fault is silently swallowed (the report still reflects the passes
/// that ran). Library embedders should prefer the checked entry point.
OptimizeReport optimizeProgram(ir::Program& program,
                               OptimizeOptions opts = {});

/// Structured-failure entry point: pass-level invariant violations,
/// verifier findings and injected faults are contained at the pass
/// boundary and returned as a Fault naming the pass — never an abort.
[[nodiscard]] OptimizeResult optimizeProgramChecked(ir::Program& program,
                                                    OptimizeOptions opts = {});

}  // namespace cssame::opt
