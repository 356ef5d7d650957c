// Unit tests for mutex structure identification (Algorithm A.1) and its
// Section 6 warnings. Only well-formed bodies are kept; ill-formed
// candidates surface only as warnings.
#include <gtest/gtest.h>

#include "src/driver/pipeline.h"
#include "src/parser/parser.h"

namespace cssame::mutex {
namespace {

driver::Compilation compile(ir::Program& p) {
  return driver::analyze(p, {.warnings = true});
}

TEST(MutexBodies, SimpleBody) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    lock(L);
    a = 1;
    unlock(L);
  )");
  driver::Compilation c = compile(p);
  ASSERT_EQ(c.mutexes().bodies().size(), 1u);
  const MutexBody& b = c.mutexes().bodies()[0];
  EXPECT_TRUE(b.wellFormed);
  EXPECT_EQ(c.graph().node(b.lockNode).kind, pfg::NodeKind::Lock);
  EXPECT_EQ(c.graph().node(b.unlockNode).kind, pfg::NodeKind::Unlock);
  // Definition 3: n ∉ B, x ∈ B, interior nodes ∈ B.
  EXPECT_FALSE(b.members.test(b.lockNode.index()));
  EXPECT_TRUE(b.members.test(b.unlockNode.index()));
  EXPECT_EQ(c.diag().diagnostics().size(), 0u);
}

TEST(MutexBodies, BranchInsideBodyIsFine) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    lock(L);
    if (a > 0) { a = 1; } else { a = 2; }
    unlock(L);
  )");
  driver::Compilation c = compile(p);
  ASSERT_EQ(c.mutexes().bodies().size(), 1u);
  EXPECT_TRUE(c.mutexes().bodies()[0].wellFormed);
  // All four branch nodes are members.
  EXPECT_GE(c.mutexes().bodies()[0].members.count(), 4u);
}

TEST(MutexBodies, LoopInsideBody) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    lock(L);
    while (a < 5) { a = a + 1; }
    unlock(L);
  )");
  driver::Compilation c = compile(p);
  ASSERT_EQ(c.mutexes().bodies().size(), 1u);
  EXPECT_TRUE(c.mutexes().bodies()[0].wellFormed);
  EXPECT_EQ(c.diag().countOf(DiagCode::UnmatchedLock), 0u);
}

TEST(MutexBodies, ConditionalUnlockYieldsNoBody) {
  ir::Program p = parser::parseOrDie(R"(
    int a, c; lock L;
    lock(L);
    if (c > 0) { unlock(L); } else { unlock(L); }
  )");
  driver::Compilation c = compile(p);
  EXPECT_TRUE(c.mutexes().bodies().empty());
  EXPECT_EQ(c.diag().countOf(DiagCode::UnmatchedLock), 1u);
  EXPECT_EQ(c.diag().countOf(DiagCode::UnmatchedUnlock), 2u);
}

TEST(MutexBodies, SequentialBodiesSameLock) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    lock(L); a = 1; unlock(L);
    lock(L); a = 2; unlock(L);
  )");
  driver::Compilation c = compile(p);
  // Candidate pairs by dominance: (l1,u1),(l1,u2),(l2,u2). Each lock
  // pairs with its nearest unlock, giving the two well-formed bodies;
  // the cross pair (l1,u2) contains u1 and l2 and is ill-formed. Because
  // every delimiter still bounds a real body, that pair is structure
  // noise, not a warning: sequential regions of the same lock are a
  // perfectly healthy shape (and the one every wrap-with-lock repair
  // produces).
  std::size_t wellFormed = 0;
  for (const MutexBody& b : c.mutexes().bodies()) wellFormed += b.wellFormed;
  EXPECT_EQ(wellFormed, 2u);
  EXPECT_EQ(c.diag().countOf(DiagCode::IllFormedMutexBody), 0u);
  // All lock/unlock nodes participate in SOME well-formed body: no
  // unmatched warnings.
  EXPECT_EQ(c.diag().countOf(DiagCode::UnmatchedLock), 0u);
  EXPECT_EQ(c.diag().countOf(DiagCode::UnmatchedUnlock), 0u);
}

TEST(MutexBodies, NestedSameLockIsIllFormed) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    lock(L);
    lock(L);
    a = 1;
    unlock(L);
    unlock(L);
  )");
  driver::Compilation c = compile(p);
  std::size_t wellFormed = 0;
  for (const MutexBody& b : c.mutexes().bodies()) wellFormed += b.wellFormed;
  // Only the inner (l2,u1) is kept. l1's nearest unlock u1 makes
  // (l1,u1) contain l2, so l1 and u2 bound no well-formed body; the
  // ill-formed candidates (l1,u1), (l1,u2) and (l2,u2) each warn.
  EXPECT_EQ(c.mutexes().bodies().size(), 1u);
  EXPECT_EQ(wellFormed, 1u);
  EXPECT_GE(c.diag().countOf(DiagCode::IllFormedMutexBody), 2u);
}

TEST(MutexBodies, NestedDifferentLocksBothWellFormed) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L, M;
    lock(L);
    lock(M);
    a = 1;
    unlock(M);
    unlock(L);
  )");
  driver::Compilation c = compile(p);
  ASSERT_EQ(c.mutexes().bodies().size(), 2u);
  for (const MutexBody& b : c.mutexes().bodies())
    EXPECT_TRUE(b.wellFormed);
  EXPECT_EQ(c.mutexes().lockVars().size(), 2u);
}

TEST(MutexBodies, PerLockStructures) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L, M;
    lock(L); a = 1; unlock(L);
    lock(M); a = 2; unlock(M);
  )");
  driver::Compilation c = compile(p);
  const SymbolId L = p.symbols.lookup("L");
  const SymbolId M = p.symbols.lookup("M");
  EXPECT_EQ(c.mutexes().structureOf(L).size(), 1u);
  EXPECT_EQ(c.mutexes().structureOf(M).size(), 1u);
  EXPECT_TRUE(c.mutexes().structureOf(p.symbols.lookup("a")).empty());
}

TEST(MutexBodies, MembershipQueries) {
  ir::Program p = parser::parseOrDie(R"(
    int a, b; lock L;
    a = 0;
    lock(L);
    a = 1;
    unlock(L);
    b = 2;
  )");
  driver::Compilation c = compile(p);
  const SymbolId L = p.symbols.lookup("L");

  NodeId inside, outside;
  for (const pfg::Node& n : c.graph().nodes()) {
    for (const ir::Stmt* s : n.stmts) {
      if (s->kind != ir::StmtKind::Assign) continue;
      if (s->expr->intValue == 1) inside = n.id;
      if (s->expr->intValue == 2) outside = n.id;
    }
  }
  EXPECT_TRUE(c.mutexes().wellFormedBodyContaining(inside, L).valid());
  EXPECT_FALSE(c.mutexes().wellFormedBodyContaining(outside, L).valid());
  EXPECT_EQ(c.mutexes().bodiesContaining(inside).size(), 1u);
  EXPECT_TRUE(c.mutexes().bodiesContaining(outside).empty());
}

TEST(MutexBodies, LockWithoutUnlockWarns) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    lock(L);
    a = 1;
  )");
  driver::Compilation c = compile(p);
  EXPECT_TRUE(c.mutexes().bodies().empty());
  EXPECT_EQ(c.diag().countOf(DiagCode::UnmatchedLock), 1u);
}

TEST(MutexBodies, UnlockWithoutLockWarns) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    a = 1;
    unlock(L);
  )");
  driver::Compilation c = compile(p);
  EXPECT_TRUE(c.mutexes().bodies().empty());
  EXPECT_EQ(c.diag().countOf(DiagCode::UnmatchedUnlock), 1u);
}

TEST(MutexBodies, BodiesPerThreadInCobegin) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = 1; unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
      thread { lock(L); a = 3; unlock(L); }
    }
  )");
  driver::Compilation c = compile(p);
  // Cross-thread pairs never satisfy DOM/PDOM: exactly 3 bodies.
  EXPECT_EQ(c.mutexes().bodies().size(), 3u);
  for (const MutexBody& b : c.mutexes().bodies())
    EXPECT_TRUE(b.wellFormed);
}

}  // namespace
}  // namespace cssame::mutex
