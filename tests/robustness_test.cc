// Robustness: the front end must reject garbage gracefully (diagnostics,
// never crashes) and the pipeline must hold its invariants on mutated
// inputs. Also pins down cross-form consistency: for every use, the
// CSSAME reaching-definition set is a subset of the CSSA set.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "src/cssa/reaching.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verify.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/pfg/verify.h"
#include "src/workload/generator.h"

namespace cssame {
namespace {

TEST(Robustness, GarbageInputsProduceDiagnosticsNotCrashes) {
  const char* garbage[] = {
      "",
      ";;;;",
      "int",
      "int ;",
      "} } {",
      "cobegin cobegin cobegin",
      "thread { }",
      "lock(L",
      "int a; a = ((((1;",
      "while () {}",
      "if (1) else {}",
      "doall = 0, 3 {}",
      "doall i 0 3 {}",
      "int a; a = 1 + + ;",
      "print();",
      "int a; a = f(;",
      "event e; set(); wait();",
      "int x; x = 9999999999999999999999999;",
      "lock lock; lock(lock);",
      "int int;",
      "cobegin { thread",
      "\x01\x02\x03 a b c",
  };
  for (const char* src : garbage) {
    DiagEngine diag;
    ir::Program p = parser::parseProgram(src, diag);
    // Whatever came back must at least be structurally verifiable or the
    // parse must have reported errors.
    if (!diag.hasErrors()) {
      EXPECT_TRUE(ir::verify(p).empty()) << "src: " << src;
    }
  }
}

TEST(Robustness, RandomTokenSoupNeverCrashes) {
  const char* tokens[] = {"int",  "lock", "event", "if",     "else",
                          "while", "cobegin", "thread", "unlock", "set",
                          "wait",  "print", "barrier", "doall", "a",
                          "b",     "L",    "(",     ")",      "{",
                          "}",     ";",    ",",     "=",      "+",
                          "-",     "*",    "/",     "%",      "<",
                          ">",     "==",   "!=",    "&&",     "||",
                          "!",     "0",    "1",     "42"};
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string src;
    const int len = 1 + static_cast<int>(rng() % 60);
    for (int i = 0; i < len; ++i) {
      src += tokens[rng() % (sizeof(tokens) / sizeof(tokens[0]))];
      src += ' ';
    }
    DiagEngine diag;
    ir::Program p = parser::parseProgram(src, diag);
    if (!diag.hasErrors()) {
      // If it happened to parse, the whole pipeline must run cleanly.
      driver::Compilation c = driver::analyze(p, {.warnings = true});
      EXPECT_TRUE(c.ssa().verify(c.graph()).empty()) << src;
    }
  }
}

TEST(Robustness, PipelineOnEveryGeneratorShape) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.determinate = seed % 2 == 0;
    cfg.useEvents = seed % 3 == 0;
    cfg.maxDepth = 1 + static_cast<int>(seed % 4);
    if (seed % 4 == 1) {  // pointer/array shapes through the full pipeline
      cfg.ptrProb = 0.25;
      cfg.arrayProb = 0.2;
    }
    ir::Program p = workload::generateRandom(cfg);
    driver::Compilation c = driver::analyze(p, {.warnings = true});
    EXPECT_TRUE(c.ssa().verify(c.graph()).empty()) << "seed " << seed;
    const auto graphProblems = pfg::verifyGraph(c.graph());
    EXPECT_TRUE(graphProblems.empty())
        << "seed " << seed << ": " << graphProblems.front();
  }
}

TEST(Consistency, CssameReachingSetsAreSubsets) {
  // The two programs are structurally identical clones, so both name a
  // real definition by its Assign statement's id, or by its variable for
  // the Entry value, and list their uses in the same program order.
  using RealDef = std::pair<StmtId, SymbolId>;
  auto useSets = [](const ir::Program& prog, const driver::Compilation& comp) {
    std::vector<std::pair<StmtId, std::vector<RealDef>>> sets;
    ir::forEachStmt(prog.body, [&](const ir::Stmt& s) {
      ir::forEachStmtExpr(s, [&](const ir::Expr& root) {
        ir::forEachExpr(root, [&](const ir::Expr& e) {
          std::vector<RealDef> defs;
          for (SsaNameId d : cssa::reachingDefs(comp.ssa(), &e)) {
            const ssa::Definition& def = comp.ssa().def(d);
            defs.emplace_back(def.stmt ? def.stmt->id : StmtId{},
                              def.stmt ? SymbolId{} : def.var);
          }
          std::sort(defs.begin(), defs.end());
          sets.emplace_back(s.id, std::move(defs));
        });
      });
    });
    return sets;
  };
  std::size_t uses = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ir::Program p1 = workload::makeLockStructured(3, 3, 4, 0.8, seed);
    ir::Program p2 = workload::makeLockStructured(3, 3, 4, 0.8, seed);
    driver::Compilation cssa =
        driver::analyze(p1, {.enableCssame = false, .warnings = false});
    driver::Compilation cssame = driver::analyze(p2, {.warnings = false});
    const auto plainSets = useSets(p1, cssa);
    const auto cssameSets = useSets(p2, cssame);
    ASSERT_EQ(plainSets.size(), cssameSets.size()) << "seed " << seed;
    for (std::size_t i = 0; i < cssameSets.size(); ++i) {
      const auto& [stmt, defs] = cssameSets[i];
      ASSERT_EQ(stmt, plainSets[i].first) << "seed " << seed;
      const std::vector<RealDef>& within = plainSets[i].second;
      EXPECT_TRUE(std::includes(within.begin(), within.end(), defs.begin(),
                                defs.end()))
          << "seed " << seed << ", statement " << stmt.index();
      uses += defs.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(uses, 0u);
}

TEST(Robustness, OptimizerOnGarbageFreePrograms) {
  // Stress the full optimizer across generator shapes with loops and
  // branches; only invariants, no output checks (racy programs).
  for (std::uint64_t seed = 300; seed < 310; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.determinate = false;
    cfg.branchProb = 0.4;
    cfg.loopProb = 0.3;
    if (seed % 2 == 1) {  // optimizer guards on indirect accesses
      cfg.ptrProb = 0.2;
      cfg.arrayProb = 0.2;
    }
    ir::Program p = workload::generateRandom(cfg);
    opt::OptimizeReport report = opt::optimizeProgram(p);
    EXPECT_TRUE(ir::verify(p).empty()) << "seed " << seed;
    EXPECT_LE(report.iterations, 8);
    driver::Compilation c = driver::analyze(p, {.warnings = false});
    EXPECT_TRUE(c.ssa().verify(c.graph()).empty());
  }
}

TEST(Robustness, ParseCheckedNeverAborts) {
  parser::ParseResult bad = parser::parseChecked("int a; a = ((1;");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.status().ok());
  EXPECT_EQ(bad.status().fault().kind, FaultKind::ParseError);
  EXPECT_EQ(bad.status().fault().pass, "parse");

  parser::ParseResult good = parser::parseChecked("int a; a = 1;");
  EXPECT_TRUE(good.ok());
  EXPECT_TRUE(good.status().ok());
  EXPECT_EQ(good.program.size(), 1u);
}

TEST(Robustness, TryAnalyzeRejectsMalformedIrWithStructuredFault) {
  ir::ProgramBuilder b;
  const SymbolId L = b.lock("L");
  b.assign(L, b.lit(1));  // assignment to a lock symbol: ill-formed
  ir::Program p = b.take();

  DiagEngine diag;
  Expected<driver::Compilation> result =
      driver::tryAnalyze(p, {}, &diag);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.fault().kind, FaultKind::VerifyError);
  EXPECT_EQ(result.fault().pass, "ir-verify");
  EXPECT_TRUE(diag.hasErrors());
  EXPECT_EQ(diag.countOf(DiagCode::VerifyFailed), 1u);
}

TEST(Robustness, TryAnalyzeSucceedsOnWellFormedPrograms) {
  ir::Program p = workload::makeLockStructured(3, 2, 4, 0.8, 11);
  Expected<driver::Compilation> result =
      driver::tryAnalyze(p, {.verifyEachPass = true});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verifyAll().empty());
}

// ---------------------------------------------------------------------------
// Resource budgets: exhaustion must surface as a graceful BudgetExceeded
// outcome, never a hang or an OOM kill.

/// N racy threads of `stmts` shared increments — exponential interleavings.
ir::Program makeRacy(int threads, int stmts) {
  ir::ProgramBuilder b;
  const SymbolId v = b.var("v");
  std::vector<ir::ProgramBuilder::BodyFn> bodies;
  for (int t = 0; t < threads; ++t)
    bodies.push_back([&b, v, stmts] {
      for (int s = 0; s < stmts; ++s) b.assign(v, b.add(b.ref(v), b.lit(1)));
    });
  b.cobegin(bodies);
  b.print(b.ref(v));
  return b.take();
}

TEST(Budgets, ExplorerStepBudgetExhaustsGracefully) {
  ir::Program p = makeRacy(4, 4);
  interp::ExploreResult r =
      interp::exploreAllSchedules(p, {.maxSteps = 64});
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.budgetExceeded, support::BudgetKind::Steps);
}

TEST(Budgets, ExplorerStateBudgetExhaustsGracefully) {
  ir::Program p = makeRacy(4, 4);
  interp::ExploreResult r =
      interp::exploreAllSchedules(p, {.maxStates = 16});
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.budgetExceeded, support::BudgetKind::States);
  EXPECT_LE(r.statesExplored, 17u);
}

TEST(Budgets, ExplorerMemoryBudgetExhaustsGracefully) {
  ir::Program p = makeRacy(4, 4);
  interp::ExploreResult r =
      interp::exploreAllSchedules(p, {.maxMemoryBytes = 1024});
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.budgetExceeded, support::BudgetKind::Memory);
}

TEST(Budgets, ExplorerDepthBoundStillCoversOtherSchedules) {
  ir::Program p = makeRacy(2, 2);
  interp::ExploreResult r =
      interp::exploreAllSchedules(p, {.maxDepthPerRun = 3});
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.budgetExceeded, support::BudgetKind::Depth);
  // Depth only bounds single schedules; the search itself kept going.
  EXPECT_GT(r.statesExplored, 1u);
}

TEST(Budgets, ExplorerWithinBudgetReportsComplete) {
  ir::Program p = makeRacy(2, 2);
  interp::ExploreResult r = interp::exploreAllSchedules(p);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.budgetExceeded, support::BudgetKind::None);
}

TEST(Budgets, InterpreterFuelExhaustsGracefullyOnSpinLoop) {
  ir::Program p = parser::parseOrDie("int a; while (1 > 0) { a = a + 1; }");
  interp::RunResult r = interp::run(p, {.seed = 3, .maxSteps = 10000});
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.budgetExceeded, support::BudgetKind::Steps);
  EXPECT_EQ(r.steps, 10000u);
}

TEST(Budgets, InterpreterCompletionLeavesBudgetClean) {
  ir::Program p = parser::parseOrDie("int a; a = 2; print(a);");
  interp::RunResult r = interp::run(p);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.budgetExceeded, support::BudgetKind::None);
}

// ---------------------------------------------------------------------------
// verifyEachPass fuzzing: the hardened optimizer must hold every invariant
// after every pass across generator shapes.

TEST(Robustness, FuzzOptimizePipelineWithVerifyEachPass) {
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2 + static_cast<int>(seed % 3);
    cfg.stmtsPerThread = 8;
    cfg.determinate = seed % 2 == 0;
    cfg.useEvents = seed % 5 == 0;
    cfg.branchProb = 0.3;
    cfg.loopProb = 0.2;
    cfg.maxDepth = 1 + static_cast<int>(seed % 3);
    ir::Program p = workload::generateRandom(cfg);

    opt::OptimizeResult result = opt::optimizeProgramChecked(
        p, {.maxIterations = 3, .verifyEachPass = true});
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status.str();
    EXPECT_FALSE(result.diag.hasErrors()) << "seed " << seed;
    EXPECT_TRUE(ir::verify(p).empty()) << "seed " << seed;
  }
}

TEST(Robustness, SanitizedGeneratorConfigNeverCrashes) {
  // Hostile configurations: zero/negative counts, NaN probabilities.
  workload::GeneratorConfig hostile;
  hostile.threads = -4;
  hostile.sharedVars = 0;
  hostile.locks = -1;
  hostile.stmtsPerThread = -100;
  hostile.maxDepth = 999;
  hostile.branchProb = std::numeric_limits<double>::quiet_NaN();
  hostile.loopProb = 7.0;
  hostile.lockedFraction = -3.0;
  ir::Program p = workload::generateRandom(hostile);
  EXPECT_TRUE(ir::verify(p).empty());
  Expected<driver::Compilation> c = driver::tryAnalyze(p);
  EXPECT_TRUE(c.ok());
}

}  // namespace
}  // namespace cssame
