// Tests for the two extensions beyond the paper's core algorithms:
//   - doall parallel loops (the paper's prototype supports them via
//     language macros, Section 6) — desugared to cobegin at parse time;
//   - barrier synchronization (listed as future work in Section 7):
//     interpreter rendezvous semantics and the MHP phase refinement.
#include <gtest/gtest.h>

#include "src/driver/pipeline.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"

namespace cssame {
namespace {

// --- doall ------------------------------------------------------------------

TEST(Doall, ExecutesAllIterations) {
  ir::Program prog = parser::parseOrDie(R"(
    int s; lock L;
    doall i = 1, 5 {
      lock(L);
      s = s + i;
      unlock(L);
    }
    print(s);
  )");
  for (const interp::RunResult& r : interp::runManySeeds(prog, 10)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, (std::vector<long long>{15}));
  }
}

TEST(Doall, IterationsAreConcurrent) {
  ir::Program prog = parser::parseOrDie(R"(
    int a;
    doall i = 0, 1 { a = i; }
    print(a);
  )");
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  // The two iterations' writes to `a` conflict.
  bool found = false;
  c.graph().conflicts.forEachEdge([&](const pfg::ConflictEdge& e) {
    found |= c.program().symbols.nameOf(e.var) == "a";
  });
  EXPECT_TRUE(found);
}

TEST(Doall, PrivateIndexNoConflicts) {
  ir::Program prog = parser::parseOrDie(R"(
    int s; lock L;
    doall i = 0, 3 { lock(L); s = s + i; unlock(L); }
  )");
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  c.graph().conflicts.forEachEdge([&](const pfg::ConflictEdge& e) {
    EXPECT_EQ(c.program().symbols.nameOf(e.var), "s");
  });
}

TEST(Doall, WorksWithCssameReduction) {
  // Each iteration kills s... no: iterations accumulate. Use a kill
  // pattern: each iteration writes then reads its own region under the
  // lock — CSSAME removes the cross-iteration π args.
  ir::Program prog = parser::parseOrDie(R"(
    int s, t; lock L;
    doall i = 0, 2 {
      lock(L);
      s = i;
      t = s + 1;
      unlock(L);
    }
    print(t);
  )");
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  // The use of s in t = s + 1 follows the kill s = i in the same body:
  // all cross-iteration π args on s disappear.
  for (SsaNameId id : c.ssa().livePis()) {
    EXPECT_NE(c.program().symbols.nameOf(c.ssa().def(id).var), "s")
        << "pi on s should have been rewritten away";
  }
  EXPECT_GT(c.rewriteStats().argsRemoved, 0u);
}

TEST(Doall, OptimizesAndPreservesSemantics) {
  ir::Program prog = parser::parseOrDie(R"(
    int s; lock L;
    doall i = 1, 4 {
      int sq;
      sq = i * i;
      lock(L);
      s = s + sq;
      unlock(L);
    }
    print(s);
  )");
  opt::optimizeProgram(prog);
  for (const interp::RunResult& r : interp::runManySeeds(prog, 8)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, (std::vector<long long>{30}));
  }
}

// --- barriers ---------------------------------------------------------------

TEST(Barrier, RendezvousOrdersPhases) {
  // Phase 1: both threads write their slot; phase 2: each reads the
  // OTHER thread's slot. The barrier guarantees visibility.
  ir::Program prog = parser::parseOrDie(R"(
    int a, b, ra, rb;
    cobegin {
      thread { a = 1; barrier; rb = b; }
      thread { b = 2; barrier; ra = a; }
    }
    print(ra);
    print(rb);
  )");
  for (const interp::RunResult& r : interp::runManySeeds(prog, 20)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, (std::vector<long long>{1, 2}));
  }
}

TEST(Barrier, AloneIsNoOp) {
  ir::Program prog = parser::parseOrDie("barrier; print(1);");
  interp::RunResult r = interp::run(prog);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.output, (std::vector<long long>{1}));
}

TEST(Barrier, SingleThreadCobeginPasses) {
  ir::Program prog = parser::parseOrDie(R"(
    cobegin { thread { barrier; print(1); } }
  )");
  interp::RunResult r = interp::run(prog);
  ASSERT_TRUE(r.completed);
}

TEST(Barrier, FinishedSiblingDoesNotBlock) {
  ir::Program prog = parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = 1; }
      thread { barrier; print(a); }
    }
  )");
  for (const interp::RunResult& r : interp::runManySeeds(prog, 10))
    ASSERT_TRUE(r.completed) << "finished sibling must release barrier";
}

TEST(Barrier, MismatchedCountsDeadlock) {
  ir::Program prog = parser::parseOrDie(R"(
    int a; lock L;
    cobegin {
      thread { barrier; barrier; a = 1; }
      thread { barrier; lock(L); }
    }
  )");
  // Thread 2 takes L and finishes... actually thread 2 holds L forever?
  // No: it just ends. Thread 1 waits at barrier 2 while thread 2 is
  // done -> released. Use a genuinely stuck shape instead:
  ir::Program stuck = parser::parseOrDie(R"(
    int a; event e;
    cobegin {
      thread { barrier; barrier; a = 1; }
      thread { barrier; wait(e); }
    }
  )");
  interp::RunResult r = interp::run(stuck, {.seed = 3});
  EXPECT_TRUE(r.deadlocked);
  (void)prog;
}

TEST(BarrierMhp, PhaseSeparationRemovesRaces) {
  ir::Program prog = parser::parseOrDie(R"(
    int a, b;
    cobegin {
      thread { a = 1; barrier; b = a + 1; }
      thread { barrier; print(a); }
    }
  )");
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  DiagEngine diag;
  const sanalysis::CsanReport races = sanalysis::runLockChecks(c, diag);
  // a=1 (phase 0, T0) vs print(a) (phase 1, T1): separated by barrier.
  // b=a+1 (phase 1, T0) vs print(a) (phase 1, T1): same phase but only
  // reads conflict-free... b is written in T0 only. So: no races at all.
  EXPECT_TRUE(races.racedVars.empty());
}

TEST(BarrierMhp, SamePhaseStillRaces) {
  ir::Program prog = parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { barrier; a = 1; }
      thread { barrier; a = 2; }
    }
    print(a);
  )");
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  DiagEngine diag;
  const sanalysis::CsanReport races = sanalysis::runLockChecks(c, diag);
  ASSERT_EQ(races.racedVars.size(), 1u);
  EXPECT_EQ(c.program().symbols.nameOf(*races.racedVars.begin()), "a");
}

TEST(BarrierMhp, PiTermsAreNotRemovedByBarriers) {
  // The barrier orders the write before the read — so the VALUE still
  // flows. π placement must keep the conflict argument (the whole point
  // of the conflicting() vs mayHappenInParallel() split).
  ir::Program prog = parser::parseOrDie(R"(
    int a, b;
    cobegin {
      thread { a = 7; barrier; }
      thread { barrier; b = a; }
    }
    print(b);
  )");
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  std::size_t pisOnA = 0;
  for (SsaNameId id : c.ssa().livePis())
    pisOnA += c.program().symbols.nameOf(c.ssa().def(id).var) == "a";
  EXPECT_EQ(pisOnA, 1u);
  // And constant propagation must see BOTH 0 (entry) and 7 meet → no
  // wrong folding of b.
  opt::optimizeProgram(prog);
  for (const interp::RunResult& r : interp::runManySeeds(prog, 10)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, (std::vector<long long>{7}));
  }
}

TEST(BarrierMhp, BarrierInLoopDisablesRefinement) {
  ir::Program prog = parser::parseOrDie(R"(
    int a, n;
    cobegin {
      thread { while (n < 2) { barrier; n = n + 1; } a = 1; }
      thread { barrier; print(a); }
    }
  )");
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  DiagEngine diag;
  const sanalysis::CsanReport races = sanalysis::runLockChecks(c, diag);
  // With the refinement disabled, a=1 vs print(a) must stay a potential
  // race (conservative).
  bool racesOnA = false;
  for (SymbolId v : races.racedVars)
    racesOnA |= c.program().symbols.nameOf(v) == "a";
  EXPECT_TRUE(racesOnA);
}

TEST(BarrierMhp, LicmNeverCrossesBarrier) {
  ir::Program prog = parser::parseOrDie(R"(
    int a, x; lock L;
    cobegin {
      thread { lock(L); x = 5; barrier; a = a + 1; unlock(L); }
      thread { barrier; lock(L); a = a + 2; unlock(L); }
    }
    print(x);
  )");
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  opt::LicmStats stats = opt::moveLockIndependentCode(c);
  // x = 5 may not sink (the barrier blocks the backward scan) and the
  // hoist scan stops at it from the front... x = 5 is before the
  // barrier, so hoisting IS allowed. Sinking past the barrier is not.
  const std::string text = ir::printProgram(prog);
  const std::size_t barrierPos = text.find("barrier");
  const std::size_t xPos = text.find("x = 5");
  ASSERT_NE(barrierPos, std::string::npos);
  ASSERT_NE(xPos, std::string::npos);
  EXPECT_LT(xPos, barrierPos) << text;
  (void)stats;
}

TEST(Barrier, PdceKeepsBarriers) {
  ir::Program prog = parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = 1; barrier; }
      thread { barrier; print(a); }
    }
  )");
  opt::optimizeProgram(prog);
  const std::string text = ir::printProgram(prog);
  EXPECT_EQ(std::count(text.begin(), text.end(), ';') >= 3, true);
  EXPECT_NE(text.find("barrier;"), std::string::npos) << text;
  for (const interp::RunResult& r : interp::runManySeeds(prog, 10)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, (std::vector<long long>{1}));
  }
}

TEST(Barrier, RoundTripsThroughPrinter) {
  ir::Program p = parser::parseOrDie(R"(
    cobegin {
      thread { barrier; }
      thread { barrier; }
    }
  )");
  const std::string text = ir::printProgram(p);
  ir::Program q = parser::parseOrDie(text);
  EXPECT_EQ(ir::printProgram(q), text);
}

}  // namespace
}  // namespace cssame
