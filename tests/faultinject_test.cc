// The fault-injection harness: proves the hardened pipeline *diagnoses*
// rather than crashes, across thousands of seeds.
//
// Three attack surfaces:
//   1. Mutated workloads — seeded structural mutations (wrong-kind
//      symbols, deleted statements, swapped operands, branch/loop flips)
//      pushed through tryAnalyze, the checked optimizer and the budgeted
//      interpreter. Every outcome must be either success or a structured
//      Fault; hangs are impossible because every engine is budgeted.
//   2. Injected pass faults — the FaultInjector corrupts the IR right
//      after a chosen optimization pass; per-pass verification must catch
//      the corruption and attribute it to exactly that pass.
//   3. Injected pass crashes — the injector throws from inside the pass
//      boundary; the optimizer must contain the exception and name the
//      pass, never terminate the process.
//   4. Mutated workloads under the explorer — the survivors of surface 1
//      are also exhaustively explored with tight budgets: the frontier
//      sweep must end gracefully on hostile shapes, either complete or
//      naming the budget that tripped.
#include <gtest/gtest.h>

#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/interp/interp.h"
#include "src/ir/verify.h"
#include "src/opt/optimize.h"
#include "src/support/faultinject.h"
#include "src/workload/generator.h"

namespace cssame {
namespace {

/// A small generator workload whose shape varies with the seed.
ir::Program makeWorkload(std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 2 + static_cast<int>(seed % 2);
  cfg.sharedVars = 3 + static_cast<int>(seed % 3);
  cfg.locks = 1 + static_cast<int>(seed % 2);
  cfg.stmtsPerThread = 6;
  cfg.maxDepth = static_cast<int>(seed % 3);
  cfg.branchProb = 0.3;
  cfg.loopProb = 0.15;
  cfg.determinate = seed % 2 == 0;
  cfg.useEvents = seed % 7 == 0;
  // A slice of the seeds exercises the weak-memory grammar (fence,
  // atomic_store/atomic_load) so mutation and corruption sweep it too.
  cfg.fenceProb = seed % 3 == 0 ? 0.15 : 0.0;
  cfg.atomicFraction = seed % 5 == 0 ? 0.4 : 0.0;
  return workload::generateRandom(cfg);
}

TEST(FaultInjection, MutatedWorkloadsAreDiagnosedNeverCrash) {
  int analyzed = 0, rejected = 0, optimized = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    ir::Program p = makeWorkload(seed);
    const std::vector<std::string> mutations =
        support::mutateProgram(p, seed * 1315423911ull);
    ASSERT_FALSE(mutations.empty() && p.size() == 0) << "seed " << seed;

    DiagEngine diag;
    Expected<driver::Compilation> comp =
        driver::tryAnalyze(p, {.verifyEachPass = true}, &diag);
    if (!comp.ok()) {
      // Structured rejection: a fault with a kind, a stage and a message,
      // mirrored into the DiagEngine.
      ++rejected;
      EXPECT_NE(comp.fault().kind, FaultKind::None) << "seed " << seed;
      EXPECT_FALSE(comp.fault().message.empty()) << "seed " << seed;
      EXPECT_TRUE(diag.hasErrors()) << "seed " << seed;
      continue;
    }
    ++analyzed;

    // Survivors are structurally valid: the full checked optimizer and the
    // budgeted interpreter must hold up (mutations may have created spin
    // loops — the step budget bounds them).
    opt::OptimizeResult result = opt::optimizeProgramChecked(
        p, {.maxIterations = 2, .verifyEachPass = true});
    if (result.ok()) {
      ++optimized;
      EXPECT_TRUE(ir::verify(p).empty()) << "seed " << seed;
    } else {
      EXPECT_FALSE(result.status.fault().pass.empty()) << "seed " << seed;
    }

    interp::RunResult run =
        interp::run(p, {.seed = seed, .maxSteps = 20000});
    EXPECT_TRUE(run.completed || run.deadlocked ||
                run.budgetExceeded != support::BudgetKind::None)
        << "seed " << seed;
  }
  // The mutation engine must actually exercise both outcomes.
  EXPECT_GT(analyzed, 50);
  EXPECT_GT(rejected, 50);
  EXPECT_GT(optimized, 10);
}

TEST(FaultInjection, MutatedWorkloadsExploreToCompletionOrNamedBudget) {
  int explored = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    ir::Program p = makeWorkload(seed);
    (void)support::mutateProgram(p, seed * 2654435761ull);
    if (!ir::verify(p).empty()) continue;  // surface 1 covers rejection

    interp::ExploreOptions opts;
    opts.maxSteps = 4096;
    opts.maxStates = 1024;
    opts.maxDepthPerRun = 256;
    opts.detectRaces = true;
    const interp::ExploreResult r = interp::exploreAllSchedules(p, opts);
    EXPECT_TRUE(r.complete || r.budgetExceeded != support::BudgetKind::None)
        << "seed " << seed;
    ++explored;
  }
  // Mutations leave plenty of structurally-valid programs to explore.
  EXPECT_GT(explored, 40);
}

TEST(FaultInjection, InjectedIrCorruptionIsAttributedToThePass) {
  auto& injector = support::FaultInjector::instance();
  int fired = 0, attributed = 0;
  for (std::uint64_t seed = 1; seed <= 360; ++seed) {
    ir::Program p = makeWorkload(seed);
    injector.arm({.seed = seed,
                  .fireAtSite = static_cast<int>(seed % 6),
                  .mode = support::FaultMode::CorruptIr});
    opt::OptimizeResult result = opt::optimizeProgramChecked(
        p, {.maxIterations = 2, .verifyEachPass = true});
    const std::string firedAt = injector.firedAt();
    const std::string injected = injector.injected();
    injector.disarm();

    if (firedAt.empty() || injected.empty()) {
      // The pipeline ended before the chosen site, or this program offered
      // no applicable corruption — either way it must have run clean.
      EXPECT_TRUE(result.ok()) << "seed " << seed << ": "
                               << result.status.str();
      continue;
    }
    ++fired;
    ASSERT_FALSE(result.ok())
        << "seed " << seed << ": corruption '" << injected
        << "' after pass '" << firedAt << "' went undiagnosed";
    // The structured diagnostic names exactly the faulted pass.
    EXPECT_EQ(result.status.fault().pass, firedAt) << "seed " << seed;
    EXPECT_TRUE(result.diag.hasErrors()) << "seed " << seed;
    if (result.status.fault().pass == firedAt) ++attributed;
  }
  EXPECT_GT(fired, 100);
  EXPECT_EQ(fired, attributed);
}

TEST(FaultInjection, InjectedPassCrashIsContained) {
  auto& injector = support::FaultInjector::instance();
  int fired = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    ir::Program p = makeWorkload(seed);
    injector.arm({.seed = seed,
                  .fireAtSite = static_cast<int>(seed % 6),
                  .mode = support::FaultMode::Throw});
    opt::OptimizeResult result =
        opt::optimizeProgramChecked(p, {.maxIterations = 2});
    const std::string firedAt = injector.firedAt();
    injector.disarm();

    if (firedAt.empty()) {
      EXPECT_TRUE(result.ok()) << "seed " << seed;
      continue;
    }
    ++fired;
    ASSERT_FALSE(result.ok()) << "seed " << seed;
    EXPECT_EQ(result.status.fault().kind, FaultKind::InvariantViolation);
    EXPECT_EQ(result.status.fault().pass, firedAt) << "seed " << seed;
  }
  EXPECT_GT(fired, 30);
}

TEST(FaultInjection, DirectCorruptionIsCaughtByTryAnalyze) {
  int corrupted = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    ir::Program p = makeWorkload(seed);
    const std::string what = support::corruptProgram(p, seed);
    if (what.empty()) continue;
    ++corrupted;
    Expected<driver::Compilation> comp = driver::tryAnalyze(p);
    EXPECT_FALSE(comp.ok()) << "seed " << seed << ": corruption '" << what
                            << "' slipped through";
    if (!comp.ok()) {
      EXPECT_EQ(comp.fault().kind, FaultKind::VerifyError) << "seed " << seed;
    }
  }
  // corruptProgram guarantees detectability; it must also nearly always
  // find an applicable site on generator workloads.
  EXPECT_GT(corrupted, 110);
}

}  // namespace
}  // namespace cssame
