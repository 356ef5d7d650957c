// Exactness of the explorer's dynamic partial-order reduction.
//
// ExploreOptions::dpor promises that `outputs`, `racedVars` and the
// deadlock / lock-error / assert / pointer-error verdicts of a reduced
// sweep are bit-identical to the unreduced one whenever the unreduced
// sweep completes (every Mazurkiewicz trace keeps a representative), and
// that `observedRanges` only ever shrinks to a sub-range. This test
// sweeps random racy programs, lock-structured ones, the adversarial
// gallery, TSO and budget-exhausted configurations with the unreduced
// explorer as the oracle, plus a TSO litmus gallery and a
// reduction-factor floor on the independence-rich benchmark workload.
#include <gtest/gtest.h>

#include <string>

#include "src/interp/explore.h"
#include "src/parser/parser.h"
#include "src/support/budget.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::interp {
namespace {

/// The exactness contract against the unreduced oracle. Budgets make the
/// comparison asymmetric: the reduced sweep does strictly less work, so
/// a complete unreduced run forces a complete reduced run with equal
/// verdicts — while an exhausted unreduced run promises nothing.
void expectContract(const ExploreResult& full, const ExploreResult& reduced,
                    const char* what) {
  SCOPED_TRACE(what);
  if (!full.complete) return;
  EXPECT_TRUE(reduced.complete);
  EXPECT_EQ(full.outputs, reduced.outputs);
  EXPECT_EQ(full.racedVars, reduced.racedVars);
  EXPECT_EQ(full.anyDeadlock, reduced.anyDeadlock);
  EXPECT_EQ(full.anyLockError, reduced.anyLockError);
  EXPECT_EQ(full.anyAssertFailure, reduced.anyAssertFailure);
  EXPECT_EQ(full.anyPtrError, reduced.anyPtrError);
  EXPECT_LE(reduced.statesExplored, full.statesExplored);
  // observedRanges may shrink, but only to sub-ranges of the unreduced
  // observations, over the same variable set (every variable is sampled
  // at the initial state).
  ASSERT_EQ(full.observedRanges.size(), reduced.observedRanges.size());
  for (const auto& [v, mm] : reduced.observedRanges) {
    auto it = full.observedRanges.find(v);
    ASSERT_NE(it, full.observedRanges.end());
    EXPECT_LE(it->second.first, mm.first);
    EXPECT_GE(it->second.second, mm.second);
  }
}

/// Runs the unreduced oracle, then the reduced sweep, and checks the
/// contract between them.
void checkDpor(const ir::Program& prog, ExploreOptions opts,
               const std::string& label) {
  SCOPED_TRACE(label);
  opts.dpor = false;
  const ExploreResult full = exploreAllSchedules(prog, opts);
  EXPECT_EQ(full.dpor.depQueries, 0u);  // off means off
  opts.dpor = true;
  const ExploreResult reduced = exploreAllSchedules(prog, opts);
  expectContract(full, reduced, "dpor vs unreduced oracle");
}

ExploreOptions smallBudget() {
  ExploreOptions opts;
  opts.maxSteps = 1u << 14;
  opts.maxStates = 1u << 12;
  opts.detectRaces = true;
  opts.recordValues = true;
  return opts;
}

TEST(ExploreDpor, RandomWorkloadSweep) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2 + static_cast<int>(seed % 2);
    cfg.sharedVars = 3;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3 + static_cast<int>(seed % 2);
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 4);
    cfg.determinate = false;
    checkDpor(workload::generateRandom(cfg), smallBudget(),
              "generateRandom seed=" + std::to_string(seed));
  }
}

TEST(ExploreDpor, LockStructuredSweep) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const double lockedFraction = 0.25 * static_cast<double>(seed % 5);
    checkDpor(workload::makeLockStructured(2, 1, 2 + static_cast<int>(seed % 2),
                                           lockedFraction, seed),
              smallBudget(), "makeLockStructured seed=" + std::to_string(seed));
  }
}

TEST(ExploreDpor, AdversarialPrograms) {
  checkDpor(parser::parseOrDie(R"(
    lock A, B;
    cobegin {
      thread { lock(A); lock(B); unlock(B); unlock(A); }
      thread { lock(B); lock(A); unlock(A); unlock(B); }
    }
  )"),
            smallBudget(), "lock-order deadlock");
  checkDpor(parser::parseOrDie(R"(
    lock L; int a;
    cobegin {
      thread { unlock(L); a = 1; }
      thread { a = 2; }
    }
  )"),
            smallBudget(), "unlock without holding");
  checkDpor(parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = a + 1; }
      thread { a = a + 1; }
    }
    assert(a == 2);
  )"),
            smallBudget(), "assert over racy sum");
  checkDpor(parser::parseOrDie(R"(
    int a; event e;
    cobegin {
      thread { a = 1; set(e); }
      thread { wait(e); print(a); }
    }
  )"),
            smallBudget(), "set/wait ordering");
  checkDpor(parser::parseOrDie(R"(
    int a; int b;
    cobegin {
      thread { a = 1; barrier; b = a; }
      thread { b = 2; barrier; print(b); }
    }
  )"),
            smallBudget(), "barrier rendezvous");
  checkDpor(parser::parseOrDie(R"(
    int a[4]; int p; int i;
    cobegin {
      thread { a[0] = 1; a[1] = 2; p = &a[2]; *p = 3; }
      thread { i = a[0]; i = *&a[1]; a[3] = a[3] + 1; }
    }
    print(a[3]);
  )"),
            smallBudget(), "pointer and array accesses");
  checkDpor(parser::parseOrDie(R"(
    int p; int x;
    cobegin {
      thread { p = 999; x = *p; }
      thread { x = 1; }
    }
  )"),
            smallBudget(), "pointer error schedule");
  checkDpor(parser::parseOrDie(R"(
    int a; int i;
    cobegin {
      thread { i = 0; while (i < 3) { a = a + 1; i = i + 1; } }
      thread { while (a < 2) { } print(a); }
    }
  )"),
            smallBudget(), "spin loop on a shared condition");
  checkDpor(parser::parseOrDie(workload::figure2Source()), smallBudget(),
            "paper figure 2");
}

TEST(ExploreDpor, BudgetExhaustedRuns) {
  // The reduced sweep does strictly less work per state, so budgets trip
  // at different points; what must survive is the off-switch oracle and
  // completion dominance (checked in checkDpor).
  workload::GeneratorConfig cfg;
  cfg.threads = 3;
  cfg.sharedVars = 3;
  cfg.locks = 1;
  cfg.stmtsPerThread = 5;
  cfg.maxDepth = 1;
  cfg.loopProb = 0.0;
  cfg.determinate = false;
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    cfg.seed = seed;
    const ir::Program prog = workload::generateRandom(cfg);

    ExploreOptions steps = smallBudget();
    steps.maxSteps = 64;
    checkDpor(prog, steps, "maxSteps=64 seed=" + std::to_string(seed));

    ExploreOptions states = smallBudget();
    states.maxStates = 16;
    checkDpor(prog, states, "maxStates=16 seed=" + std::to_string(seed));

    ExploreOptions depth = smallBudget();
    depth.maxDepthPerRun = 3;
    checkDpor(prog, depth, "maxDepthPerRun=3 seed=" + std::to_string(seed));

    ExploreOptions memory = smallBudget();
    memory.maxMemoryBytes = 16u << 10;
    checkDpor(prog, memory, "maxMemoryBytes=16K seed=" + std::to_string(seed));
  }
}

TEST(ExploreDpor, TsoRandomSweep) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2;
    cfg.sharedVars = 3;
    cfg.locks = 1;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 3);
    cfg.determinate = false;
    cfg.fenceProb = seed % 2 == 0 ? 0.2 : 0.0;
    cfg.atomicFraction = seed % 3 == 0 ? 0.5 : 0.0;
    ExploreOptions opts = smallBudget();
    opts.model = support::MemoryModel::TSO;
    checkDpor(workload::generateRandom(cfg), opts,
              "tso generateRandom seed=" + std::to_string(seed));
  }
}

TEST(ExploreDpor, TsoLitmusGallery) {
  // The classic weak-memory litmus shapes: store buffering (with and
  // without the repairing fence / atomics), message passing, load
  // buffering shape, and independent reads of independent writes. Each
  // must keep its exact output set — the SB `0 0` outcome exists under
  // TSO precisely because flush actions interleave, and the reduction
  // must not prune the flush orderings that produce it.
  const char* gallery[] = {
      R"(int x, y, r0, r1;
         cobegin {
           thread { x = 1; r0 = y; }
           thread { y = 1; r1 = x; }
         }
         print(r0); print(r1);)",
      R"(int x, y, r0, r1;
         cobegin {
           thread { x = 1; fence; r0 = y; }
           thread { y = 1; fence; r1 = x; }
         }
         print(r0); print(r1);)",
      R"(int x, y, r0, r1;
         cobegin {
           thread { atomic_store(x, 1); r0 = atomic_load(y); }
           thread { atomic_store(y, 1); r1 = atomic_load(x); }
         }
         print(r0); print(r1);)",
      R"(int d, f, r0, r1;
         cobegin {
           thread { d = 41; f = 1; }
           thread { r0 = f; r1 = d; }
         }
         print(r0); print(r1);)",
      R"(int x, y, a, b;
         cobegin {
           thread { a = x; y = 1; }
           thread { b = y; x = 1; }
         }
         print(a); print(b);)",
      R"(int x, y, r0, r1, r2, r3;
         cobegin {
           thread { x = 1; }
           thread { y = 1; }
           thread { r0 = x; r1 = y; }
           thread { r2 = y; r3 = x; }
         }
         print(r0 * 8 + r1 * 4 + r2 * 2 + r3);)",
  };
  for (const char* src : gallery) {
    for (support::MemoryModel model :
         {support::MemoryModel::SC, support::MemoryModel::TSO}) {
      ExploreOptions opts = smallBudget();
      opts.maxSteps = 1u << 18;
      opts.maxStates = 1u << 16;
      opts.model = model;
      checkDpor(parser::parseOrDie(src), opts,
                std::string("litmus model=") +
                    (model == support::MemoryModel::TSO ? "TSO" : "SC"));
    }
  }
}

TEST(ExploreDpor, ReductionFloorOnScaleWorkload) {
  // The bench_scale_explore reduction workload: four threads doing
  // mostly thread-local update chains, with one racing pair on `r`.
  // This is where the persistent sets earn their keep — the acceptance
  // floor is a 10x cut in explored states, under both memory models,
  // with every contract field intact (checked by checkDpor too).
  const char* src = R"(
    int w0, w1, w2, w3, r;
    cobegin {
      thread { w0 = w0 + 1; w0 = w0 * 2; w0 = w0 + 3; r = r + w0; }
      thread { w1 = w1 + 2; w1 = w1 * 3; w1 = w1 + 1; r = r * 2; }
      thread { w2 = w2 + 1; w2 = w2 * 2; w2 = w2 + 1; }
      thread { w3 = w3 + 5; w3 = w3 * 2; w3 = w3 + 1; }
    }
    print(r);
  )";
  const ir::Program prog = parser::parseOrDie(src);
  for (support::MemoryModel model :
       {support::MemoryModel::SC, support::MemoryModel::TSO}) {
    SCOPED_TRACE(model == support::MemoryModel::TSO ? "TSO" : "SC");
    ExploreOptions opts;
    opts.maxSteps = 1u << 24;
    opts.maxStates = 1u << 22;
    opts.detectRaces = true;
    opts.recordValues = true;
    opts.model = model;
    checkDpor(prog, opts, "scale workload");
    opts.dpor = false;
    const ExploreResult full = exploreAllSchedules(prog, opts);
    opts.dpor = true;
    const ExploreResult reduced = exploreAllSchedules(prog, opts);
    ASSERT_TRUE(full.complete);
    ASSERT_TRUE(reduced.complete);
    EXPECT_GE(full.statesExplored, 10 * reduced.statesExplored);
    EXPECT_GT(reduced.dpor.prunedSuccessors, 0u);
    EXPECT_GT(reduced.dpor.depQueries, 0u);
  }
}

}  // namespace
}  // namespace cssame::interp
