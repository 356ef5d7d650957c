#include "src/opt/optimize.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/cssa/reaching.h"
#include "src/ir/verify.h"
#include "src/support/faultinject.h"

namespace cssame::opt {

namespace {

void accumulate(ConstPropStats& total, const ConstPropStats& step) {
  total.constantDefs += step.constantDefs;
  total.usesReplaced += step.usesReplaced;
  total.branchesResolved += step.branchesResolved;
  total.unreachableRemoved += step.unreachableRemoved;
}

void accumulate(DceStats& total, const DceStats& step) {
  total.stmtsRemoved += step.stmtsRemoved;
  total.cobeginsSerialized += step.cobeginsSerialized;
}

void accumulate(LicmStats& total, const LicmStats& step) {
  total.hoisted += step.hoisted;
  total.sunk += step.sunk;
  total.bodiesRemoved += step.bodiesRemoved;
}

/// Runs the pass pipeline with every pass boundary hardened: exceptions
/// are converted to faults, the fault-injection hook runs after each pass
/// body, and (in verifyEachPass mode) the full verifier suite re-runs so
/// corruption is caught — and attributed — at the pass that introduced it.
class CheckedOptimizer {
 public:
  CheckedOptimizer(ir::Program& program, OptimizeOptions opts)
      : prog_(program),
        opts_(opts),
        pipeOpts_{.enableCssame = opts.cssame, .warnings = false} {}

  OptimizeResult run() {
    for (int iter = 0; iter < opts_.maxIterations && out_.ok(); ++iter) {
      ++out_.report.iterations;
      bool changed = false;

      changed |= runPass("simplify", [&] {
        const SimplifyStats step = simplifyExpressions(prog_);
        out_.report.simplify.rewrites += step.rewrites;
        return step.changedIr();
      });
      changed |= runPass("cscc", [&] {
        driver::Compilation c = driver::analyze(prog_, pipeOpts_);
        const ConstPropStats step = propagateConstants(c);
        accumulate(out_.report.constProp, step);
        return step.changedIr();
      });
      changed |= runPass("copyprop", [&] {
        driver::Compilation c = driver::analyze(prog_, pipeOpts_);
        const CopyPropStats step = propagateCopies(c);
        out_.report.copyProp.usesRewritten += step.usesRewritten;
        return step.changedIr();
      });
      changed |= runPass("pdce", [&] {
        driver::Compilation c = driver::analyze(prog_, pipeOpts_);
        const DceStats step = eliminateDeadCode(c);
        accumulate(out_.report.deadCode, step);
        return step.changedIr();
      });
      changed |= runPass("licm", [&] {
        driver::Compilation c = driver::analyze(prog_, pipeOpts_);
        const LicmStats step = moveLockIndependentCode(c);
        accumulate(out_.report.lockMotion, step);
        return step.changedIr();
      });
      changed |= runPass("licm-expr", [&] {
        driver::Compilation c = driver::analyze(prog_, pipeOpts_);
        const ExprHoistStats step = hoistLockIndependentExpressions(c);
        out_.report.exprMotion.exprsHoisted += step.exprsHoisted;
        out_.report.exprMotion.opsHoisted += step.opsHoisted;
        return step.changedIr();
      });

      if (!changed) break;
    }
    return std::move(out_);
  }

 private:
  template <typename Fn>
  bool runPass(const char* name, Fn&& fn) {
    if (!out_.ok()) return false;
    bool changed = false;
    try {
      changed = fn();
      support::FaultInjector::instance().visitSite(name, prog_);
    } catch (const InvariantError& e) {
      fail(FaultKind::InvariantViolation, name, e.what());
      return false;
    } catch (const std::exception& e) {
      fail(FaultKind::PassError, name, e.what());
      return false;
    }
    if (opts_.verifyEachPass) verifyAfter(name);
    return changed && out_.ok();
  }

  void verifyAfter(const char* pass) {
    const std::vector<std::string> irProblems = ir::verify(prog_);
    if (!irProblems.empty()) {
      fail(FaultKind::VerifyError, pass,
           "ir verification failed after pass: " + irProblems.front() +
               (irProblems.size() > 1
                    ? " (+" + std::to_string(irProblems.size() - 1) + " more)"
                    : ""));
      return;
    }
    try {
      // Rebuild both forms and re-verify the derived structures.
      driver::PipelineOptions plainOpts{.enableCssame = false,
                                        .warnings = false};
      driver::Compilation plain = driver::analyze(prog_, plainOpts);
      driver::PipelineOptions fullOpts{.enableCssame = true,
                                       .warnings = false};
      driver::Compilation full = driver::analyze(prog_, fullOpts);
      const std::vector<std::string> problems = full.verifyAll();
      if (!problems.empty()) {
        fail(FaultKind::VerifyError, pass,
             "derived-structure verification failed after pass: " +
                 problems.front());
        return;
      }
      // CSSAME only ever *removes* π reaching paths that mutual exclusion
      // proves dead, so for every use the CSSAME reaching-definition set
      // must stay within the CSSA set (paper Theorem 2). Both forms read
      // one IR, so a real definition is named by its Assign statement, or
      // by its variable's CSSA class for the Entry value.
      const ir::AliasClasses& classes = plain.graph().aliases;
      auto realDefs = [&](const driver::Compilation& c, const ir::Expr& use) {
        std::vector<std::pair<const ir::Stmt*, SymbolId>> out;
        for (SsaNameId d : cssa::reachingDefs(c.ssa(), &use)) {
          const ssa::Definition& def = c.ssa().def(d);
          out.emplace_back(def.stmt,
                           def.stmt ? SymbolId{} : classes.repOf(def.var));
        }
        std::sort(out.begin(), out.end());
        return out;
      };
      const ir::Expr* outside = nullptr;
      ir::forEachStmt(prog_.body, [&](const ir::Stmt& s) {
        ir::forEachStmtExpr(s, [&](const ir::Expr& root) {
          ir::forEachExpr(root, [&](const ir::Expr& use) {
            const auto sub = realDefs(full, use), sup = realDefs(plain, use);
            if (!outside &&
                !std::includes(sup.begin(), sup.end(), sub.begin(), sub.end()))
              outside = &use;
          });
        });
      });
      if (outside != nullptr) {
        fail(FaultKind::VerifyError, pass,
             "CSSAME reaching-definition set of the use at " +
                 outside->loc.str() + " is not within its CSSA set after pass");
        return;
      }
    } catch (const InvariantError& e) {
      fail(FaultKind::InvariantViolation, pass, e.what());
    }
  }

  void fail(FaultKind kind, const char* pass, std::string message) {
    if (!out_.ok()) return;  // keep the first fault
    out_.status = Status::fail(kind, pass, std::move(message));
    out_.diag.reportFault(out_.status.fault());
  }

  ir::Program& prog_;
  OptimizeOptions opts_;
  driver::PipelineOptions pipeOpts_;
  OptimizeResult out_;
};

}  // namespace

OptimizeResult optimizeProgramChecked(ir::Program& program,
                                      OptimizeOptions opts) {
  return CheckedOptimizer(program, opts).run();
}

OptimizeReport optimizeProgram(ir::Program& program, OptimizeOptions opts) {
  return optimizeProgramChecked(program, opts).report;
}

}  // namespace cssame::opt
