// Unit tests for may-happen-in-parallel analysis and conflict/sync edge
// computation (paper Definition 1: Ecf, Emutex, Edsync).
#include <gtest/gtest.h>

#include "src/analysis/concurrency.h"
#include "src/parser/parser.h"
#include "src/pfg/build.h"

namespace cssame::analysis {
namespace {

struct Fixture {
  ir::Program prog;
  pfg::Graph graph;
  Dominators dom;
  Mhp mhp;

  explicit Fixture(const char* src)
      : prog(parser::parseOrDie(src)),
        graph(pfg::buildPfg(prog)),
        dom(graph, Dominators::Direction::Forward),
        mhp(graph, dom) {
    computeConflictEdges(graph, mhp, collectAccessSites(graph));
  }

  NodeId nodeWithConst(long long v) {
    for (const pfg::Node& n : graph.nodes())
      for (const ir::Stmt* s : n.stmts)
        if (s->kind == ir::StmtKind::Assign &&
            s->expr->kind == ir::ExprKind::IntConst && s->expr->intValue == v)
          return n.id;
    ADD_FAILURE() << "no node assigning " << v;
    return NodeId{};
  }
};

TEST(Mhp, SiblingThreadsAreConcurrent) {
  Fixture f(R"(
    int a;
    a = 0;
    cobegin {
      thread { a = 1; }
      thread { a = 2; }
    }
    a = 3;
  )");
  const NodeId t0 = f.nodeWithConst(1);
  const NodeId t1 = f.nodeWithConst(2);
  const NodeId before = f.nodeWithConst(0);
  const NodeId after = f.nodeWithConst(3);
  EXPECT_TRUE(f.mhp.mayHappenInParallel(t0, t1));
  EXPECT_FALSE(f.mhp.mayHappenInParallel(before, t0));
  EXPECT_FALSE(f.mhp.mayHappenInParallel(t1, after));
  EXPECT_FALSE(f.mhp.mayHappenInParallel(t0, t0));
}

TEST(Mhp, SameThreadSequentialNodes) {
  Fixture f(R"(
    int a; lock L;
    cobegin {
      thread { a = 1; lock(L); a = 2; unlock(L); }
      thread { a = 3; }
    }
  )");
  const NodeId first = f.nodeWithConst(1);
  const NodeId second = f.nodeWithConst(2);
  EXPECT_FALSE(f.mhp.mayHappenInParallel(first, second));
}

TEST(Mhp, NestedCobegin) {
  Fixture f(R"(
    int a;
    cobegin {
      thread {
        cobegin {
          thread { a = 1; }
          thread { a = 2; }
        }
        a = 3;
      }
      thread { a = 4; }
    }
  )");
  const NodeId inner0 = f.nodeWithConst(1);
  const NodeId inner1 = f.nodeWithConst(2);
  const NodeId afterInner = f.nodeWithConst(3);
  const NodeId sibling = f.nodeWithConst(4);
  EXPECT_TRUE(f.mhp.mayHappenInParallel(inner0, inner1));
  EXPECT_TRUE(f.mhp.mayHappenInParallel(inner0, sibling));
  EXPECT_TRUE(f.mhp.mayHappenInParallel(afterInner, sibling));
  EXPECT_FALSE(f.mhp.mayHappenInParallel(inner0, afterInner));
}

TEST(Mhp, SetWaitEstablishesOrdering) {
  Fixture f(R"(
    int a; event e;
    cobegin {
      thread { a = 1; set(e); a = 2; }
      thread { wait(e); a = 3; }
    }
  )");
  const NodeId beforeSet = f.nodeWithConst(1);
  const NodeId afterSet = f.nodeWithConst(2);
  const NodeId afterWait = f.nodeWithConst(3);
  // a=1 dominates set(e); wait(e) dominates a=3 → ordered, not parallel.
  EXPECT_TRUE(f.mhp.orderedBefore(beforeSet, afterWait));
  EXPECT_FALSE(f.mhp.mayHappenInParallel(beforeSet, afterWait));
  // a=2 is after the set: no ordering with a=3.
  EXPECT_FALSE(f.mhp.orderedBefore(afterSet, afterWait));
  EXPECT_TRUE(f.mhp.mayHappenInParallel(afterSet, afterWait));
  // The conflict relation ignores the ordering (dataflow still crosses).
  EXPECT_TRUE(f.mhp.conflicting(beforeSet, afterWait));
}

TEST(Mhp, ConditionalSetStillOrdersDominatedPrefix) {
  // The set sits under a branch, but a=1 dominates it, so the ordering
  // a=1 ≺ a=3 is still sound: if the set never fires, the wait blocks
  // and a=3 never executes (the ordering holds vacuously).
  Fixture f(R"(
    int a, c; event e;
    cobegin {
      thread { a = 1; if (c > 0) { set(e); } }
      thread { wait(e); a = 3; }
    }
  )");
  const NodeId def = f.nodeWithConst(1);
  const NodeId use = f.nodeWithConst(3);
  EXPECT_TRUE(f.mhp.orderedBefore(def, use));
  EXPECT_FALSE(f.mhp.mayHappenInParallel(def, use));
}

TEST(Mhp, UseBeforeWaitNotOrdered) {
  // A node NOT dominated by the wait gets no ordering.
  Fixture f(R"(
    int a; event e;
    cobegin {
      thread { a = 1; set(e); }
      thread { a = 3; wait(e); }
    }
  )");
  const NodeId def = f.nodeWithConst(1);
  const NodeId use = f.nodeWithConst(3);
  EXPECT_FALSE(f.mhp.orderedBefore(def, use));
  EXPECT_TRUE(f.mhp.mayHappenInParallel(def, use));
}

TEST(ConflictEdges, DefUseAndDefDef) {
  Fixture f(R"(
    int a, b;
    cobegin {
      thread { a = 1; }
      thread { b = a; }
      thread { a = 2; }
    }
  )");
  std::size_t du = 0, dd = 0;
  for (const pfg::ConflictEdge& e : f.graph.conflicts) {
    EXPECT_EQ(f.prog.symbols.nameOf(e.var), "a");
    if (e.toIsDef) ++dd;
    else ++du;
  }
  // DU: a=1 -> (b=a), a=2 -> (b=a). DD: a=1 <-> a=2 both directions.
  EXPECT_EQ(du, 2u);
  EXPECT_EQ(dd, 2u);
}

TEST(ConflictEdges, PrivateVariablesExcluded) {
  Fixture f(R"(
    cobegin {
      thread { int p; p = 1; p = p + 1; }
      thread { int q; q = 2; }
    }
  )");
  EXPECT_TRUE(f.graph.conflicts.empty());
}

TEST(ConflictEdges, NoConflictWithoutConcurrency) {
  Fixture f("int a; a = 1; a = 2; print(a);");
  EXPECT_TRUE(f.graph.conflicts.empty());
}

TEST(ConflictEdges, ConditionUsesConflict) {
  Fixture f(R"(
    int a;
    cobegin {
      thread { a = 1; }
      thread { if (a > 0) { print(1); } }
    }
  )");
  ASSERT_EQ(f.graph.conflicts.size(), 1u);
  EXPECT_FALSE(f.graph.conflicts[0].toIsDef);
}

TEST(SyncEdges, MutexEdgesPairConcurrentLockUnlock) {
  Fixture f(R"(
    int a; lock L, M;
    cobegin {
      thread { lock(L); a = 1; unlock(L); }
      thread { lock(L); a = 2; unlock(L); lock(M); a = 3; unlock(M); }
    }
  )");
  // L: lock(T0)-unlock(T1) and lock(T1)-unlock(T0). M has no concurrent
  // counterpart (only used in one thread).
  const SyncEdges sync = syncEdges(f.graph, f.mhp);
  EXPECT_EQ(sync.mutex.size(), 2u);
  for (const pfg::MutexEdge& e : sync.mutex)
    EXPECT_EQ(f.prog.symbols.nameOf(e.lockVar), "L");
}

TEST(SyncEdges, DsyncEdgesPairSetWait) {
  Fixture f(R"(
    event e, unused;
    cobegin {
      thread { set(e); }
      thread { wait(e); }
    }
  )");
  const SyncEdges sync = syncEdges(f.graph, f.mhp);
  ASSERT_EQ(sync.dsync.size(), 1u);
  EXPECT_EQ(f.prog.symbols.nameOf(sync.dsync[0].eventVar), "e");
}

TEST(AccessSites, CollectsDefsAndUses) {
  Fixture f(R"(
    int a, b;
    a = 1;
    cobegin {
      thread { a = a + b; }
      thread { b = 2; }
    }
  )");
  AccessSites sites = collectAccessSites(f.graph);
  const SymbolId a = f.prog.symbols.lookup("a");
  const SymbolId b = f.prog.symbols.lookup("b");
  EXPECT_EQ(sites.defs[a].size(), 2u);  // a=1, a=a+b
  EXPECT_EQ(sites.uses[a].size(), 1u);  // a in a+b
  EXPECT_EQ(sites.defs[b].size(), 1u);
  EXPECT_EQ(sites.uses[b].size(), 1u);
}

}  // namespace
}  // namespace cssame::analysis
