// Tests for CVRA (concurrent value-range analysis, src/sanalysis/vrange):
//   - interval domain unit behavior (hull, collapse-free eval, widening),
//   - end-to-end ranges on parsed programs, including the key precision
//     result: CSSAME π pruning inside a mutex body yields a strictly
//     tighter interval than plain CSSA,
//   - the DeadBranch / UnreachableCode / DivByZero / Assert* diagnostics,
//   - the constant-lattice lockstep cross-check and dynamic soundness
//     property over generated workloads (~200), cross-validated against
//     exhaustive schedule exploration with value recording.
#include <gtest/gtest.h>

#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/parser/parser.h"
#include "src/sanalysis/vrange.h"
#include "src/workload/generator.h"

namespace cssame::sanalysis {
namespace {

VrangeResult analyzeSource(const char* src, DiagEngine* diag = nullptr,
                           bool cssame = true) {
  ir::Program prog = parser::parseOrDie(src);
  driver::Compilation c =
      driver::analyze(prog, {.enableCssame = cssame, .warnings = false});
  return analyzeValueRanges(c, diag);
}

/// The hull for a named variable after analyzing `src`.
Interval varRange(const char* src, const char* var, bool cssame = true) {
  ir::Program prog = parser::parseOrDie(src);
  driver::Compilation c =
      driver::analyze(prog, {.enableCssame = cssame, .warnings = false});
  const VrangeResult vr = analyzeValueRanges(c);
  const SymbolId id = prog.symbols.lookup(var);
  EXPECT_TRUE(id.valid()) << var;
  return vr.varRanges[id.index()];
}

// ---------------------------------------------------------------------------
// Interval domain units.

TEST(Interval, HullBasics) {
  const Interval a = Interval::single(3);
  const Interval b = Interval::single(7);
  EXPECT_EQ(Interval::hull(a, b), Interval::bounds(3, 7));
  EXPECT_EQ(Interval::hull(Interval::topValue(), b), b);
  EXPECT_EQ(Interval::hull(a, Interval::full()), Interval::full());
  EXPECT_TRUE(Interval::hull(a, b).contains(5));
  EXPECT_FALSE(Interval::hull(a, b).contains(8));
}

TEST(Interval, Predicates) {
  EXPECT_TRUE(Interval::single(0).isZero());
  EXPECT_TRUE(Interval::single(4).isSingleton());
  EXPECT_TRUE(Interval::bounds(1, 9).excludesZero());
  EXPECT_FALSE(Interval::bounds(-1, 1).excludesZero());
  EXPECT_TRUE(Interval::full().contains(-123456789));
  EXPECT_FALSE(Interval::topValue().contains(0));
}

TEST(IntervalDomain, SingletonOperandsFoldExactly) {
  IntervalDomain d;
  const Interval r =
      d.evalBinary(ir::BinOp::Mul, Interval::single(6), Interval::single(7));
  EXPECT_EQ(r, Interval::single(42));
}

TEST(IntervalDomain, NonSingletonNeverCollapses) {
  IntervalDomain d;
  // [2,3] * 0 is exactly 0, but a collapse would break the lockstep with
  // the three-point constant lattice (Bottom * Const = Bottom), whose
  // constants CSCC reads off the singletons; the result must stay
  // non-singleton.
  const Interval r =
      d.evalBinary(ir::BinOp::Mul, Interval::bounds(2, 3), Interval::single(0));
  EXPECT_FALSE(r.isSingleton());
  EXPECT_TRUE(r.contains(0));  // ...but must still cover the true value
  // Comparisons of wide ranges land in [0,1], never a singleton.
  const Interval c =
      d.evalBinary(ir::BinOp::Lt, Interval::bounds(0, 1), Interval::single(5));
  EXPECT_FALSE(c.isSingleton());
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(1));
}

TEST(IntervalDomain, BranchResolvesOnlyOnSingletons) {
  IntervalDomain d;
  EXPECT_EQ(d.branch(Interval::single(1)), dataflow::BranchVerdict::TrueOnly);
  EXPECT_EQ(d.branch(Interval::single(0)), dataflow::BranchVerdict::FalseOnly);
  EXPECT_EQ(d.branch(Interval::bounds(1, 2)), dataflow::BranchVerdict::Both);
  EXPECT_EQ(d.branch(Interval::topValue()), dataflow::BranchVerdict::Unknown);
}

TEST(IntervalDomain, WideningLoosensOnlyMovingBounds) {
  IntervalDomain d;
  const Interval prev = Interval::bounds(0, 5);
  const Interval next = Interval::bounds(0, 9);
  // Below the threshold: keep the precise hull.
  EXPECT_EQ(d.widen(prev, next, 2), next);
  // Past the threshold: the growing side goes to ∞, the stable one stays.
  const Interval w = d.widen(prev, next, d.widenThreshold + 1);
  EXPECT_TRUE(w.hiInf);
  EXPECT_FALSE(w.loInf);
  EXPECT_EQ(w.lo, 0);
}

// ---------------------------------------------------------------------------
// End-to-end ranges.

TEST(Vrange, StraightLineSingletons) {
  const Interval y = varRange("int x, y; x = 2; y = x * 3 + 1; print(y);",
                              "y");
  // Hull of the entry value 0 and the assigned 7.
  EXPECT_EQ(y, Interval::bounds(0, 7));
}

TEST(Vrange, RacyMergeStaysBounded) {
  const Interval y = varRange(
      "int x, y; lock L;"
      "cobegin {"
      "  thread T0 { lock(L); x = 1; unlock(L); }"
      "  thread T1 { lock(L); x = 5; unlock(L); }"
      "}"
      "y = x + 10; print(y);",
      "y");
  EXPECT_FALSE(y.isTop());
  EXPECT_FALSE(y.loInf);
  EXPECT_FALSE(y.hiInf);
  // x after the coend is 0, 1 or 5; y covers {0} ∪ [10,15].
  EXPECT_TRUE(y.contains(0));
  EXPECT_TRUE(y.contains(11));
  EXPECT_TRUE(y.contains(15));
  EXPECT_FALSE(y.contains(16));
}

TEST(Vrange, LoopCountersWidenSoundly) {
  const Interval i = varRange(
      "int i; i = 0; while (i < 100) { i = i + 1; } print(i);", "i");
  EXPECT_FALSE(i.isTop());
  EXPECT_TRUE(i.contains(0));
  EXPECT_TRUE(i.contains(100));  // widening must not clip the exit value
  EXPECT_FALSE(i.contains(-1));  // the stable lower bound survives
}

// The acceptance-critical precision result: inside T0's mutex body the
// read of x can only see T0's own write — CSSAME prunes T1's concurrent
// definition from the π merge (both writes are protected by L), while
// plain CSSA keeps it. The interval for y is strictly tighter under
// CSSAME.
TEST(Vrange, CssamePiPruningTightensIntervalOverCssa) {
  const char* src =
      "int x, y; lock L;"
      "cobegin {"
      "  thread T0 { lock(L); x = 1; y = x + 1; unlock(L); }"
      "  thread T1 { lock(L); x = 5; unlock(L); }"
      "}"
      "print(y);";
  const Interval tight = varRange(src, "y", /*cssame=*/true);
  const Interval wide = varRange(src, "y", /*cssame=*/false);

  // Under CSSAME: x reads exactly 1, so y ∈ hull(0, 2) = [0,2].
  EXPECT_EQ(tight, Interval::bounds(0, 2));
  // Under CSSA the π merge keeps x = 5, so y reaches 6.
  EXPECT_TRUE(wide.contains(6));
  // Strict containment: tight ⊂ wide.
  EXPECT_TRUE(wide.contains(tight.lo));
  EXPECT_TRUE(wide.contains(tight.hi));
  EXPECT_FALSE(tight.contains(wide.hi));
}

// ---------------------------------------------------------------------------
// Diagnostics.

TEST(VrangeDiag, DeadBranchAndUnreachable) {
  DiagEngine diag;
  const VrangeResult vr = analyzeSource(
      "int a, b; a = 1;"
      "if (a > 0) { b = 10; } else { b = 20; }"
      "print(b);",
      &diag);
  EXPECT_GE(diag.countOf(DiagCode::DeadBranch), 1u);
  EXPECT_GE(diag.countOf(DiagCode::UnreachableCode), 1u);
  EXPECT_GE(vr.stats.deadBranches, 1u);
  EXPECT_GE(vr.stats.unreachableNodes, 1u);
}

TEST(VrangeDiag, DivByDefiniteZero) {
  DiagEngine diag;
  (void)analyzeSource("int a, b; b = 7 / a; print(b);", &diag);
  EXPECT_GE(diag.countOf(DiagCode::DivByZero), 1u);  // entry value of a is 0
}

TEST(VrangeDiag, AssertProvedAndMayFail) {
  DiagEngine diag;
  const VrangeResult vr = analyzeSource(
      "int x; x = 3;"
      "assert(x > 0);"   // proved: [3,3] > 0
      "assert(x > 5);",  // always fails
      &diag);
  EXPECT_EQ(vr.stats.assertsProved, 1u);
  EXPECT_EQ(vr.stats.assertsMayFail, 1u);
  EXPECT_GE(diag.countOf(DiagCode::AssertProved), 1u);
  EXPECT_GE(diag.countOf(DiagCode::AssertMayFail), 1u);
}

TEST(VrangeDiag, RacyAssertMayFail) {
  DiagEngine diag;
  (void)analyzeSource(
      "int x; lock L;"
      "cobegin {"
      "  thread T0 { lock(L); x = 0; unlock(L); }"
      "  thread T1 { lock(L); x = 1; unlock(L); }"
      "}"
      "assert(x);",
      &diag);
  // x ∈ [0,1] contains zero: the assert may fail on some schedule.
  EXPECT_GE(diag.countOf(DiagCode::AssertMayFail), 1u);
}

// ---------------------------------------------------------------------------
// Constant-lattice lockstep + dynamic soundness over generated workloads.

class VrangeProperty : public ::testing::TestWithParam<std::uint64_t> {};

void checkWorkload(ir::Program prog) {
  driver::Compilation comp = driver::analyze(prog, {.warnings = false});
  const VrangeResult vr = analyzeValueRanges(comp);

  // 1. The interval lattice must agree with the three-point constant
  //    lattice.
  EXPECT_EQ(crossCheckConstants(comp, vr), "");

  // 2. Every value any variable holds in any state of any schedule must
  //    lie inside the static hull. Observations remain valid witnesses
  //    even when an exploration budget trips.
  interp::ExploreOptions eopts;
  eopts.recordValues = true;
  eopts.maxSteps = 1u << 16;
  eopts.maxStates = 1u << 14;
  const interp::ExploreResult dyn = interp::exploreAllSchedules(prog, eopts);
  for (const auto& [var, range] : dyn.observedRanges) {
    const Interval& hull = vr.varRanges[var.index()];
    EXPECT_TRUE(hull.contains(range.first) && hull.contains(range.second))
        << "'" << prog.symbols.nameOf(var) << "' observed ["
        << range.first << "," << range.second << "] outside " << hull.str();
  }
}

TEST_P(VrangeProperty, SoundOnRacyWorkloads) {
  const std::uint64_t seed = GetParam();
  workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 2 + static_cast<int>(seed % 2);
  cfg.sharedVars = 3;
  cfg.locks = 2;
  cfg.stmtsPerThread = 3 + static_cast<int>(seed % 3);
  cfg.maxDepth = 1;
  cfg.loopProb = 0.0;  // keep the schedule space exhaustible
  cfg.lockedFraction = 0.25 * static_cast<double>(seed % 4);
  cfg.determinate = false;
  checkWorkload(workload::generateRandom(cfg));
}

TEST_P(VrangeProperty, SoundOnLockStructuredWorkloads) {
  const std::uint64_t seed = GetParam();
  checkWorkload(workload::makeLockStructured(
      2, 1, 2 + static_cast<int>(seed % 2),
      0.25 * static_cast<double>(seed % 5), seed));
}

// 100 seeds × 2 families = 200 workloads.
INSTANTIATE_TEST_SUITE_P(Sweep, VrangeProperty,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace cssame::sanalysis
