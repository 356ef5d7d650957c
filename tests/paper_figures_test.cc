// End-to-end checks of the paper's running example (Figures 1-3).
//
// Figure 2's program is analyzed and the resulting CSSA/CSSAME forms are
// compared against the forms printed in Figure 3: five π terms under plain
// CSSA, exactly one (`tb0 = π(b0, b1)`) under CSSAME, with both φ terms
// (`a3`, `a5`) surviving.
#include <gtest/gtest.h>

#include "src/cssa/form_printer.h"
#include "src/cssa/reaching.h"
#include "src/driver/pipeline.h"
#include "src/ir/verify.h"

namespace cssame {
namespace {

const char* kFigure2 = R"(
int a, b, x, y;
lock L;
a = 0;
b = 0;
cobegin {
  thread T0 {
    lock(L);
    a = 5;
    b = a + 3;
    if (b > 4) { a = a + b; }
    x = a;
    unlock(L);
  }
  thread T1 {
    lock(L);
    a = b + 6;
    y = a;
    unlock(L);
  }
}
print(x);
print(y);
)";

const char* kFigure1 = R"(
int a, b;
lock L;
a = 1;
b = 2;
cobegin {
  thread T0 {
    lock(L);
    a = a + b;
    unlock(L);
  }
  thread T1 {
    f(a);
    lock(L);
    a = 3;
    b = b + g(a);
    unlock(L);
  }
}
print(a);
print(b);
)";

TEST(Figure2, ParsesAndVerifies) {
  ir::Program prog = parser::parseOrDie(kFigure2);
  EXPECT_TRUE(ir::verify(prog).empty());
  // 2 inits + cobegin + 7 stmts in T0 + 4 in T1 + 2 prints.
  EXPECT_EQ(prog.size(), 16u);
}

TEST(Figure2, MutexStructures) {
  ir::Program prog = parser::parseOrDie(kFigure2);
  driver::Compilation c = driver::analyze(prog);
  ASSERT_EQ(c.mutexes().lockVars().size(), 1u);
  const auto& bodies = c.mutexes().bodies();
  ASSERT_EQ(bodies.size(), 2u);
  for (const auto& b : bodies) {
    EXPECT_TRUE(b.wellFormed);
    // The body contains its unlock node but not its lock node.
    EXPECT_TRUE(b.members.test(b.unlockNode.index()));
    EXPECT_FALSE(b.members.test(b.lockNode.index()));
  }
  // No synchronization warnings on a well-formed program.
  EXPECT_EQ(c.diag().diagnostics().size(), 0u);
  // Two mutex edges: lock(T0)-unlock(T1) and lock(T1)-unlock(T0).
  EXPECT_EQ(analysis::syncEdges(c.graph(), c.mhp()).mutex.size(), 2u);
}

TEST(Figure2, CssaHasFivePiTerms) {
  ir::Program prog = parser::parseOrDie(kFigure2);
  driver::Compilation c = driver::analyze(prog, {.enableCssame = false});
  EXPECT_EQ(c.ssa().countLivePis(), 5u) << cssa::printForm(c.graph(), c.ssa());
  // T1's π on `a` merges the control def with both of T0's definitions.
  std::size_t maxArgs = 0;
  for (SsaNameId pi : c.ssa().livePis())
    maxArgs = std::max(maxArgs, c.ssa().def(pi).piConflictArgs.size());
  EXPECT_EQ(maxArgs, 2u);
}

TEST(Figure2, CssameKeepsOnlyThePiOnB) {
  ir::Program prog = parser::parseOrDie(kFigure2);
  driver::Compilation c = driver::analyze(prog);
  ASSERT_EQ(c.ssa().countLivePis(), 1u) << cssa::printForm(c.graph(), c.ssa());
  const ssa::Definition& pi = c.ssa().def(c.ssa().livePis().front());
  // The survivor is the π on `b` in T1 (Figure 3b: tb0 = π(b0, b1)).
  EXPECT_EQ(c.program().symbols.nameOf(pi.var), "b");
  ASSERT_EQ(pi.piConflictArgs.size(), 1u);
  EXPECT_EQ(c.rewriteStats().pisRemoved, 4u);
}

TEST(Figure2, PhiTermsSurviveCssame) {
  ir::Program prog = parser::parseOrDie(kFigure2);
  driver::Compilation c = driver::analyze(prog);
  // Figure 3b: a3 = φ(a1, a2) at the if-join and a5 = φ(a3, a4) at coend.
  EXPECT_EQ(c.ssa().countLivePhis(), 2u) << cssa::printForm(c.graph(), c.ssa());
  // SSA chains remain structurally consistent after rewriting.
  EXPECT_TRUE(c.ssa().verify(c.graph()).empty());
}

TEST(Figure1, LockKillsCrossThreadDefForSecondUse) {
  ir::Program prog = parser::parseOrDie(kFigure1);
  // With CSSAME, the use of `a` in `b = b + g(a)` (inside T1's mutex body,
  // after `a = 3`) is not upward-exposed, so T0's definition of `a` cannot
  // reach it: its only reaching definition is `a = 3`.
  driver::Compilation c = driver::analyze(prog);

  const ir::SymbolTable& syms = c.program().symbols;
  const SymbolId a = syms.lookup("a");
  // Find the VarRef of `a` inside the call to g().
  const ir::Expr* gUse = nullptr;
  ir::forEachStmt(c.program().body, [&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::Assign || !s.expr) return;
    ir::forEachExpr(*s.expr, [&](const ir::Expr& e) {
      if (e.kind == ir::ExprKind::Call &&
          syms.nameOf(e.callee) == "g") {
        gUse = e.operands[0].get();
      }
    });
  });
  ASSERT_NE(gUse, nullptr);
  ASSERT_EQ(gUse->var, a);

  const std::vector<SsaNameId> defs = cssa::reachingDefs(c.ssa(), gUse);
  ASSERT_EQ(defs.size(), 1u);
  const ssa::Definition& d = c.ssa().def(defs.front());
  ASSERT_EQ(d.kind, ssa::DefKind::Assign);
  EXPECT_EQ(d.stmt->expr->kind, ir::ExprKind::IntConst);
  EXPECT_EQ(d.stmt->expr->intValue, 3);

  // Under plain CSSA the same use sees both `a = 3` and T0's `a = a + b`.
  ir::Program prog2 = parser::parseOrDie(kFigure1);
  driver::Compilation c2 = driver::analyze(prog2, {.enableCssame = false});
  const ir::Expr* gUse2 = nullptr;
  ir::forEachStmt(c2.program().body, [&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::Assign || !s.expr) return;
    ir::forEachExpr(*s.expr, [&](const ir::Expr& e) {
      if (e.kind == ir::ExprKind::Call &&
          c2.program().symbols.nameOf(e.callee) == "g")
        gUse2 = e.operands[0].get();
    });
  });
  ASSERT_NE(gUse2, nullptr);
  EXPECT_EQ(cssa::reachingDefs(c2.ssa(), gUse2).size(), 2u);
}

}  // namespace
}  // namespace cssame
