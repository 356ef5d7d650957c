// Golden test: the exact CSSAME form of the paper's Figure 2 program, as
// rendered by the form printer. This pins the whole front half of the
// pipeline — block formation, φ placement, coend pruning, π placement and
// the CSSAME rewriting — to a stable, reviewable artifact mirroring the
// paper's Figure 3b.
#include <gtest/gtest.h>

#include "src/cssa/form_printer.h"
#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/workload/paper_programs.h"

namespace cssame {
namespace {

TEST(FormGolden, Figure2Cssame) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  const std::string form = cssa::printForm(c.graph(), c.ssa());

  // Version numbers: 0 is the entry value; φ at coend and the if-join
  // were created during placement (before renaming), hence their low
  // numbers. Compare with the paper's Figure 3b: π on b survives with
  // args (b before the cobegin, b from T0); every π on a is gone; both
  // φ terms remain.
  const char* expected = R"(#0 entry:
#1 exit:
#2 block [2 stmts]:
  a3 = 0
  b2 = 0
#3 cobegin:
#4 coend:
  a1 = phi(a2, a6)
#5 block [0 stmts] [depth 1 thread 0]:
#6 lock(L) [depth 1 thread 0]:
#7 block [2 stmts, branch] [depth 1 thread 0]:
  a4 = 5
  b3 = a4 + 3
  branch b3 > 4
#8 block [1 stmts] [depth 1 thread 0]:
  a5 = a4 + b3
#9 block [1 stmts] [depth 1 thread 0]:
  a2 = phi(a4, a5)
  x2 = a2
#10 unlock(L) [depth 1 thread 0]:
#11 block [0 stmts] [depth 1 thread 1]:
#12 lock(L) [depth 1 thread 1]:
#13 block [2 stmts] [depth 1 thread 1]:
  b4 = pi(b2, b3)
  a6 = b4 + 6
  y2 = a6
#14 unlock(L) [depth 1 thread 1]:
#15 block [2 stmts]:
  print(x2)
  print(y2)
)";
  EXPECT_EQ(form, expected);
}

TEST(FormGolden, MatchesFigure3bStructure) {
  // The same facts, asserted structurally (robust to renumbering):
  //   - T0 contains NO π terms at all,
  //   - T1 contains exactly one π on b with args (b_init, b_T0),
  //   - the if-join φ merges T0's two defs of a,
  //   - the coend φ merges T0's and T1's final a.
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  const std::string form = cssa::printForm(c.graph(), c.ssa());
  EXPECT_EQ(form.find("pi("), form.rfind("pi(")) << form;  // exactly one π
  EXPECT_NE(form.find("= pi(b"), std::string::npos);
  // Two φs, one on each side of the coend.
  std::size_t phis = 0, pos = 0;
  while ((pos = form.find("= phi(", pos)) != std::string::npos) {
    ++phis;
    ++pos;
  }
  EXPECT_EQ(phis, 2u);
}

std::string formOf(const char* src) {
  ir::Program prog = parser::parseOrDie(src);
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  return cssa::printForm(c.graph(), c.ssa());
}

TEST(FormGolden, DerefStoreWithoutDefinition) {
  // q holds 0, so `*q = 1` has an empty points-to set and no SSA
  // definition: the store keeps its source lvalue.
  EXPECT_EQ(formOf("int x, q; cobegin { thread A { *q = 1; } "
                   "thread B { x = 2; } } print(x);"),
            R"(#0 entry:
#1 exit:
#2 block [0 stmts]:
#3 cobegin:
#4 coend:
#5 block [1 stmts] [depth 1 thread 0]:
  *q0 = 1
#6 block [1 stmts] [depth 1 thread 1]:
  x2 = 2
#7 block [1 stmts]:
  print(x2)
)");
}

TEST(FormGolden, PointerAndArrayOperands) {
  // AddrOf, Deref and Index operands print in source syntax. p may point
  // at x or into a, so x and a share one class and `a[1]` reads it. The
  // store `*p = 1` keeps its address operand, the π use p4, and names the
  // definition it makes.
  EXPECT_EQ(formOf("int x, p, y; int a[4]; p = &x; "
                   "cobegin { thread A { *p = 1; y = *p + a[1]; } "
                   "thread B { p = &a[2]; } } print(y);"),
            R"(#0 entry:
#1 exit:
#2 block [1 stmts]:
  p2 = &x
#3 cobegin:
#4 coend:
#5 block [2 stmts] [depth 1 thread 0]:
  p4 = pi(p2, p3)
  *p4 = 1 [defines x2]
  p5 = pi(p2, p3)
  y2 = *p5 + x2[1]
#6 block [1 stmts] [depth 1 thread 1]:
  p3 = &a[2]
#7 block [1 stmts]:
  print(y2)
)");
  // `a[i] = 3` keeps its index use i4, a π over the concurrent write to
  // i, and names the definition of a it makes.
  EXPECT_EQ(formOf("int a[4]; int i, x; i = 1; cobegin { thread A { "
                   "a[i] = 3; } thread B { i = 2; x = a[0]; } } print(x);"),
            R"(#0 entry:
#1 exit:
#2 block [1 stmts]:
  i2 = 1
#3 cobegin:
#4 coend:
#5 block [1 stmts] [depth 1 thread 0]:
  i4 = pi(i2, i3)
  a[i4] = 3 [defines a2]
#6 block [2 stmts] [depth 1 thread 1]:
  i3 = 2
  a3 = pi(a0, a2)
  x2 = a3[0]
#7 block [1 stmts]:
  print(x2)
)");
}

}  // namespace
}  // namespace cssame
