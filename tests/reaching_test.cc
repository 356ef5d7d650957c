// Unit tests for parallel reaching definitions (Algorithm A.4): FUD chain
// traversal through φ and π terms, cycle handling, and one set per use.
#include <gtest/gtest.h>

#include "src/cssa/reaching.h"
#include "src/driver/pipeline.h"
#include "src/parser/parser.h"

namespace cssame::cssa {
namespace {

struct Fixture {
  ir::Program prog;
  driver::Compilation comp;

  explicit Fixture(const char* src, bool cssame = true)
      : prog(parser::parseOrDie(src)),
        comp(driver::analyze(prog,
                             {.enableCssame = cssame, .warnings = false})) {}

  /// First VarRef of `var` inside the statement tagged by constant `tag`.
  const ir::Expr* useIn(long long tag, const std::string& var) {
    const ir::Expr* out = nullptr;
    ir::forEachStmt(prog.body, [&](const ir::Stmt& s) {
      if (!s.expr) return;
      bool tagged = false;
      ir::forEachExpr(*s.expr, [&](const ir::Expr& e) {
        if (e.kind == ir::ExprKind::IntConst && e.intValue == tag)
          tagged = true;
      });
      if (!tagged) return;
      ir::forEachExpr(*s.expr, [&](const ir::Expr& e) {
        if (e.kind == ir::ExprKind::VarRef && out == nullptr &&
            prog.symbols.nameOf(e.var) == var)
          out = &e;
      });
    });
    return out;
  }

  std::vector<long long> reachingConstants(const ir::Expr* use) {
    std::vector<long long> vals;
    for (SsaNameId d : reachingDefs(comp.ssa(), use)) {
      const ssa::Definition& def = comp.ssa().def(d);
      if (def.kind == ssa::DefKind::Assign &&
          def.stmt->expr->kind == ir::ExprKind::IntConst)
        vals.push_back(def.stmt->expr->intValue);
      if (def.kind == ssa::DefKind::Entry) vals.push_back(-999);
    }
    std::sort(vals.begin(), vals.end());
    return vals;
  }
};

TEST(Reaching, StraightLine) {
  Fixture f("int a, b; a = 1; b = a + 100;");
  const ir::Expr* u = f.useIn(100, "a");
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(f.reachingConstants(u), (std::vector<long long>{1}));
}

TEST(Reaching, ThroughPhi) {
  Fixture f(R"(
    int a, b, c;
    if (c > 0) { a = 1; } else { a = 2; }
    b = a + 100;
  )");
  const ir::Expr* u = f.useIn(100, "a");
  EXPECT_EQ(f.reachingConstants(u), (std::vector<long long>{1, 2}));
}

TEST(Reaching, ThroughLoopPhiTerminates) {
  Fixture f(R"(
    int i, b;
    i = 1;
    while (i < 5) { i = 2; }
    b = i + 100;
  )");
  const ir::Expr* u = f.useIn(100, "i");
  EXPECT_EQ(f.reachingConstants(u), (std::vector<long long>{1, 2}));
}

TEST(Reaching, ThroughPiConflictArgs) {
  Fixture f(R"(
    int a, b;
    a = 1;
    cobegin {
      thread { b = a + 100; }
      thread { a = 2; }
    }
  )");
  const ir::Expr* u = f.useIn(100, "a");
  EXPECT_EQ(f.reachingConstants(u), (std::vector<long long>{1, 2}));
}

TEST(Reaching, EntryDefinition) {
  Fixture f("int a, b; b = a + 100;");
  const ir::Expr* u = f.useIn(100, "a");
  EXPECT_EQ(f.reachingConstants(u), (std::vector<long long>{-999}));
}

TEST(Reaching, CssameReducesReachingSet) {
  const char* src = R"(
    int a, b; lock L;
    cobegin {
      thread { lock(L); a = 1; b = a + 100; unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
    }
  )";
  Fixture withCssame(src, true);
  Fixture plain(src, false);
  const ir::Expr* u1 = withCssame.useIn(100, "a");
  const ir::Expr* u2 = plain.useIn(100, "a");
  EXPECT_EQ(withCssame.reachingConstants(u1), (std::vector<long long>{1}));
  EXPECT_EQ(plain.reachingConstants(u2), (std::vector<long long>{1, 2}));
}

TEST(Reaching, MultipleUsesInOneStatement) {
  Fixture f("int a, b; a = 1; b = a + a + 100;");
  // Each VarRef gets its own set.
  std::size_t usesOfA = 0;
  for (const auto& [use, name] : f.comp.ssa().useDef)
    if (f.prog.symbols.nameOf(use->var) == "a") {
      EXPECT_EQ(f.reachingConstants(use), (std::vector<long long>{1}));
      ++usesOfA;
    }
  EXPECT_EQ(usesOfA, 2u);
}

TEST(Reaching, SelfReferenceInLoop) {
  // i = i + 1 inside the loop: the rhs use reaches both the init and the
  // loop's own def — the walk's visited set must stop the cycle.
  Fixture f(R"(
    int i;
    i = 0;
    while (i < 3) { i = i + 100; }
  )");
  const ir::Expr* u = f.useIn(100, "i");
  ASSERT_NE(u, nullptr);
  // i = 0 and i = i + 100
  EXPECT_EQ(reachingDefs(f.comp.ssa(), u).size(), 2u);
}

}  // namespace
}  // namespace cssame::cssa
