// Edge cases and smaller surfaces not covered elsewhere: explorer
// budgets, machine state hashing, printer corner cases, doall keyword
// interactions, interpreter fuel, symbol table queries.
#include <gtest/gtest.h>

#include "src/interp/explore.h"
#include "src/interp/interp.h"
#include "src/interp/machine.h"
#include "src/ir/printer.h"
#include "src/parser/parser.h"

namespace cssame {
namespace {

TEST(ExploreBudget, ExhaustionReportedNotFatal) {
  // A loopy two-thread program with a big state space and a tiny budget.
  ir::Program prog = parser::parseOrDie(R"(
    int a, b;
    cobegin {
      thread { int i; i = 0; while (i < 30) { a = a + 1; i = i + 1; } }
      thread { int j; j = 0; while (j < 30) { b = b + 1; j = j + 1; } }
    }
    print(a + b);
  )");
  interp::ExploreResult r =
      interp::exploreAllSchedules(prog, {.maxSteps = 500, .dpor = false});
  EXPECT_FALSE(r.complete);
  // The two threads touch disjoint variables, so partial-order reduction
  // collapses the interleaving product — 500 steps then complete the
  // sweep. A budget below even the reduced sweep still trips.
  interp::ExploreResult reduced =
      interp::exploreAllSchedules(prog, {.maxSteps = 500});
  EXPECT_TRUE(reduced.complete);
  EXPECT_GT(reduced.dpor.prunedSuccessors, 0u);
  interp::ExploreResult tiny =
      interp::exploreAllSchedules(prog, {.maxSteps = 20});
  EXPECT_FALSE(tiny.complete);
}

TEST(ExploreBudget, SpinLoopHasFiniteStateSpaceAndNoOutputs) {
  // The spin re-visits one dynamic state forever; state deduplication
  // closes the cycle, so exploration COMPLETES over the finite state
  // space — and finds no terminating schedule at all.
  ir::Program prog = parser::parseOrDie(R"(
    int a;
    while (a == 0) { }
    print(a);
  )");
  interp::ExploreResult r = interp::exploreAllSchedules(prog);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.outputs.empty());
  EXPECT_FALSE(r.anyDeadlock);  // spinning is not blocking
}

TEST(ExploreBudget, SpinReleasedByOtherThreadStillEnumerates) {
  ir::Program prog = parser::parseOrDie(R"(
    int flag;
    cobegin {
      thread { flag = 1; }
      thread { while (flag == 0) { } print(flag); }
    }
  )");
  interp::ExploreResult r = interp::exploreAllSchedules(prog);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.outputList(),
            (std::vector<std::vector<long long>>{{1}}));
}

TEST(Machine, StateHashDistinguishesProgress) {
  ir::Program prog = parser::parseOrDie("int a; a = 1; a = 2; print(a);");
  interp::Machine m(prog);
  std::vector<support::Hash128> hashes{m.stateHash128()};
  while (m.anyAlive()) {
    const auto ready = m.readyThreads();
    ASSERT_FALSE(ready.empty());
    m.stepThread(ready[0]);
    hashes.push_back(m.stateHash128());
  }
  // Every step changed the dynamic state.
  for (std::size_t i = 0; i < hashes.size(); ++i)
    for (std::size_t j = i + 1; j < hashes.size(); ++j)
      EXPECT_NE(hashes[i], hashes[j]) << i << " vs " << j;
}

TEST(Machine, CopyForksIndependently) {
  ir::Program prog = parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = 1; }
      thread { a = 2; }
    }
    print(a);
  )");
  interp::Machine m(prog);
  // Advance to the scheduling choice between the two stores.
  while (m.readyThreads().size() < 2) m.stepThread(m.readyThreads()[0]);
  interp::Machine fork = m;
  const auto ready = m.readyThreads();
  ASSERT_EQ(ready.size(), 2u);
  m.stepThread(ready[0]);
  fork.stepThread(ready[1]);
  EXPECT_NE(m.stateHash128(), fork.stateHash128());
}

TEST(Interp, FuelLimitsHonored) {
  ir::Program prog = parser::parseOrDie("int a; while (a == 0) { }");
  interp::RunResult r = interp::run(prog, {.seed = 1, .maxSteps = 123});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.steps, 123u);
}

TEST(Printer, DoallRoundTripsAsCobegin) {
  ir::Program p = parser::parseOrDie(R"(
    int s; doall i = 0, 1 { s = s + i; }
  )");
  const std::string text = ir::printProgram(p);
  // The macro is expanded: the printed program shows the cobegin form.
  EXPECT_NE(text.find("cobegin"), std::string::npos);
  EXPECT_NE(text.find("thread i0"), std::string::npos);
  EXPECT_NE(text.find("thread i1"), std::string::npos);
  // And it re-parses to the same text.
  ir::Program q = parser::parseOrDie(text);
  EXPECT_EQ(ir::printProgram(q), text);
}

TEST(Printer, DeeplyNestedStructures) {
  ir::Program p = parser::parseOrDie(R"(
    int a;
    if (a > 0) {
      while (a < 10) {
        if (a == 5) { a = a + 2; } else { a = a + 1; }
      }
    }
    print(a);
  )");
  ir::Program q = parser::parseOrDie(ir::printProgram(p));
  EXPECT_EQ(ir::printProgram(q), ir::printProgram(p));
  EXPECT_EQ(p.size(), q.size());
}

TEST(Symbols, LookupAndKinds) {
  ir::Program p = parser::parseOrDie(
      "int a; lock L; event e; a = f(1);");
  const ir::SymbolTable& syms = p.symbols;
  EXPECT_TRUE(syms.isSharedVar(syms.lookup("a")));
  EXPECT_FALSE(syms.isSharedVar(syms.lookup("L")));
  EXPECT_EQ(syms[syms.lookup("e")].kind, ir::SymbolKind::Event);
  EXPECT_FALSE(syms.lookup("missing").valid());
  EXPECT_EQ(syms.nameOf(syms.lookup("a")), "a");
}

TEST(Interp, ManySeedsHelperCoversSeedRange) {
  ir::Program p = parser::parseOrDie(R"(
    cobegin {
      thread { print(1); }
      thread { print(2); }
    }
  )");
  auto results = interp::runManySeeds(p, 30);
  ASSERT_EQ(results.size(), 30u);
  bool saw12 = false, saw21 = false;
  for (const auto& r : results) {
    saw12 |= r.output == std::vector<long long>{1, 2};
    saw21 |= r.output == std::vector<long long>{2, 1};
  }
  EXPECT_TRUE(saw12);
  EXPECT_TRUE(saw21);
}

TEST(Interp, DoallBarrierTogether) {
  // Barriers inside doall iterations rendezvous across all iterations.
  ir::Program prog = parser::parseOrDie(R"(
    int s0, s1, s2, t;
    doall i = 0, 2 {
      if (i == 0) { s0 = 1; }
      if (i == 1) { s1 = 2; }
      if (i == 2) { s2 = 3; }
      barrier;
      if (i == 0) { t = s0 + s1 + s2; }
    }
    print(t);
  )");
  for (const interp::RunResult& r : interp::runManySeeds(prog, 15)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, (std::vector<long long>{6}));
  }
}

}  // namespace
}  // namespace cssame
