// Property-based tests: randomized programs swept over seeds with
// parameterized gtest. Invariants checked on every program:
//   P1  the SSA form verifies after the full pipeline (CSSA and CSSAME),
//   P2  CSSAME only ever removes π terms/arguments relative to CSSA,
//   P3  optimizing a determinate program preserves its (unique) output,
//   P4  optimization never increases program size on these workloads,
//   P5  re-analysis of an optimized program still verifies,
//   P6  printing and re-parsing an optimized program is a fixpoint,
//   P7  the held-locks and pending-store walks (dataflow/reach.h) equal a
//       round-robin fixpoint of their gen/kill transfer functions at
//       every node.
#include <gtest/gtest.h>

#include <set>

#include "src/dataflow/reach.h"
#include "src/driver/pipeline.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/ir/verify.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/workload/generator.h"

namespace cssame {
namespace {

workload::GeneratorConfig configFor(std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 2 + static_cast<int>(seed % 4);
  cfg.locks = 1 + static_cast<int>(seed % 3);
  cfg.sharedVars = 3 + static_cast<int>(seed % 5);
  cfg.stmtsPerThread = 10 + static_cast<int>(seed % 20);
  cfg.useEvents = seed % 3 == 0;
  cfg.determinate = true;
  // Pointer and array traffic on a third of the sweep. The knobs draw
  // nothing from the RNG at 0, so the remaining seeds generate their
  // exact pre-pointer programs; the generator's indirect updates are
  // additive under the target's lock, so P3 (determinate output) holds.
  if (seed % 3 == 1) {
    cfg.ptrProb = 0.2;
    cfg.arrayProb = 0.15;
  }
  return cfg;
}

/// P7's reference: the held-locks and pending-store transfer functions,
/// iterated over every node in order until no out-value changes. Returns
/// the in-values (the PFG verifier keeps the entry free of predecessors,
/// so its in-value is empty).
struct ReferenceWindows {
  std::vector<std::set<SymbolId>> held;
  std::vector<std::set<StmtId>> pending;
};

ReferenceWindows referenceFixpoint(const pfg::Graph& g) {
  const ir::SymbolTable& syms = g.program().symbols;
  ReferenceWindows in{std::vector<std::set<SymbolId>>(g.size()),
                      std::vector<std::set<StmtId>>(g.size())};
  ReferenceWindows out = in;
  for (bool changed = true; changed;) {
    changed = false;
    for (const pfg::Node& n : g.nodes()) {
      const std::size_t i = n.id.index();
      std::set<SymbolId> held;
      std::set<StmtId> pending;
      for (NodeId p : n.preds) {
        held.insert(out.held[p.index()].begin(), out.held[p.index()].end());
        pending.insert(out.pending[p.index()].begin(),
                       out.pending[p.index()].end());
      }
      in.held[i] = held;
      in.pending[i] = pending;
      if (n.kind == pfg::NodeKind::Lock) held.insert(n.syncStmt->sync);
      if (n.kind == pfg::NodeKind::Unlock) held.erase(n.syncStmt->sync);
      if (n.kind != pfg::NodeKind::Block) pending.clear();
      for (const ir::Stmt* s : n.stmts) {
        if (s->kind != ir::StmtKind::Assign) continue;
        const SymbolId cls = g.aliases.defTargetOf(*s);
        if (s->atomic)
          pending.clear();
        else if (cls.valid() && g.aliases.classShared(cls, syms))
          pending.insert(s->id);
      }
      if (held != out.held[i] || pending != out.pending[i]) {
        out.held[i] = std::move(held);
        out.pending[i] = std::move(pending);
        changed = true;
      }
    }
  }
  return in;
}

/// P7 on one program. Returns the held (node, lock) bits plus the pending
/// (node, store) entries, so callers can tell a vacuous sweep.
std::size_t expectWalksMatchReference(ir::Program& prog) {
  const driver::Compilation c = driver::analyze(prog, {.warnings = false});
  const pfg::Graph& g = c.graph();
  const ReferenceWindows ref = referenceFixpoint(g);
  const std::vector<DynBitset> held = dataflow::heldLocksOnEntry(g);
  const std::vector<std::vector<StmtId>> pending =
      dataflow::pendingStoresOnEntry(g);
  std::size_t facts = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    std::set<SymbolId> walked;
    for (std::size_t l = 0; l < held.size(); ++l)
      if (held[l].size() != 0 && held[l].test(i))
        walked.insert(SymbolId{static_cast<SymbolId::value_type>(l)});
    EXPECT_TRUE(walked == ref.held[i]) << "held locks differ at node " << i;
    EXPECT_TRUE(pending[i] == std::vector<StmtId>(ref.pending[i].begin(),
                                                  ref.pending[i].end()))
        << "pending stores differ at node " << i;
    facts += walked.size() + pending[i].size();
  }
  return facts;
}

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, SsaVerifiesUnderCssaAndCssame) {
  ir::Program prog = workload::generateRandom(configFor(GetParam()));
  {
    driver::Compilation c =
        driver::analyze(prog, {.enableCssame = false, .warnings = false});
    EXPECT_TRUE(c.ssa().verify(c.graph()).empty());
  }
  {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    EXPECT_TRUE(c.ssa().verify(c.graph()).empty());
  }
}

TEST_P(PipelineProperty, CssameOnlyRemoves) {
  ir::Program p1 = workload::generateRandom(configFor(GetParam()));
  ir::Program p2 = workload::generateRandom(configFor(GetParam()));
  driver::Compilation cssa =
      driver::analyze(p1, {.enableCssame = false, .warnings = false});
  driver::Compilation cssame = driver::analyze(p2, {.warnings = false});
  EXPECT_LE(cssame.ssa().countLivePis(), cssa.ssa().countLivePis());
  EXPECT_LE(cssame.ssa().countPiConflictArgs(),
            cssa.ssa().countPiConflictArgs());
  EXPECT_EQ(cssame.ssa().countLivePhis(), cssa.ssa().countLivePhis());
}

TEST_P(PipelineProperty, OptimizationPreservesDeterminateOutput) {
  ir::Program prog = workload::generateRandom(configFor(GetParam()));
  const interp::RunResult before = interp::run(prog, {.seed = 123});
  ASSERT_TRUE(before.completed);

  opt::optimizeProgram(prog);
  EXPECT_TRUE(ir::verify(prog).empty());

  // Determinate programs: one canonical output across all schedules.
  for (const interp::RunResult& after : interp::runManySeeds(prog, 6)) {
    ASSERT_TRUE(after.completed);
    EXPECT_EQ(after.output, before.output) << "generator seed "
                                           << GetParam();
  }
}

TEST_P(PipelineProperty, OptimizationGrowsOnlyByHoistedTemps) {
  ir::Program prog = workload::generateRandom(configFor(GetParam()));
  const std::size_t before = prog.size();
  opt::OptimizeReport report = opt::optimizeProgram(prog);
  // Expression hoisting introduces one temporary per hoist; everything
  // else only removes statements.
  EXPECT_LE(prog.size(), before + report.exprMotion.exprsHoisted);
}

TEST_P(PipelineProperty, OptimizedProgramReanalyzes) {
  ir::Program prog = workload::generateRandom(configFor(GetParam()));
  opt::optimizeProgram(prog);
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  EXPECT_TRUE(c.ssa().verify(c.graph()).empty());
}

TEST_P(PipelineProperty, PrintParseFixpoint) {
  ir::Program prog = workload::generateRandom(configFor(GetParam()));
  opt::optimizeProgram(prog);
  const std::string text1 = ir::printProgram(prog);
  ir::Program reparsed = parser::parseOrDie(text1);
  EXPECT_EQ(ir::printProgram(reparsed), text1);
}

TEST_P(PipelineProperty, WalksMatchReferenceFixpoint) {
  ir::Program prog = workload::generateRandom(configFor(GetParam()));
  expectWalksMatchReference(prog);
  // The same seed with fences and atomic accesses, which drain the
  // pending-store windows.
  workload::GeneratorConfig cfg = configFor(GetParam());
  cfg.determinate = GetParam() % 2 == 0;
  cfg.fenceProb = 0.1;
  cfg.atomicFraction = 0.3;
  ir::Program tso = workload::generateRandom(cfg);
  expectWalksMatchReference(tso);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// Same sweep over the structured lock workload: not determinate (races
// by construction at low locked fractions), so only the structural
// invariants are checked — plus CSCC/PDCE monotonicity under CSSAME.
class LockWorkloadProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LockWorkloadProperty, AnalysisInvariants) {
  const std::uint64_t seed = GetParam();
  const double frac = static_cast<double>(seed % 5) / 4.0;
  ir::Program p1 = workload::makeLockStructured(3, 4, 4, frac, seed);
  ir::Program p2 = workload::makeLockStructured(3, 4, 4, frac, seed);
  driver::Compilation cssa =
      driver::analyze(p1, {.enableCssame = false, .warnings = false});
  driver::Compilation cssame = driver::analyze(p2, {.warnings = false});
  EXPECT_TRUE(cssa.ssa().verify(cssa.graph()).empty());
  EXPECT_TRUE(cssame.ssa().verify(cssame.graph()).empty());
  EXPECT_LE(cssame.ssa().countPiConflictArgs(),
            cssa.ssa().countPiConflictArgs());
}

TEST_P(LockWorkloadProperty, OptimizerTerminatesAndVerifies) {
  ir::Program prog =
      workload::makeLockStructured(3, 4, 4, 0.75, GetParam());
  opt::OptimizeReport report = opt::optimizeProgram(prog);
  EXPECT_LE(report.iterations, 8);
  EXPECT_TRUE(ir::verify(prog).empty());
}

TEST_P(LockWorkloadProperty, WalksMatchReferenceFixpoint) {
  const std::uint64_t seed = GetParam();
  ir::Program prog = workload::makeLockStructured(
      3, 4, 4, static_cast<double>(seed % 5) / 4.0, seed);
  expectWalksMatchReference(prog);
  ir::Program bank = workload::makeBank(3, 3, 4, seed);
  expectWalksMatchReference(bank);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockWorkloadProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

// P7 on hand-written lock and store shapes, well-formed or not, and on
// the lock-region series.
TEST(ReachabilityWalks, MatchReferenceOnHandShapes) {
  const char* shapes[] = {
      // A lock re-acquired in a loop: held on entry to its own node.
      "int x = 0, i = 0; lock L;"
      "while (i < 3) { lock(L); x = x + 1; i = i + 1; }",
      // An unlock on one branch only.
      "int x = 0; lock L;"
      "lock(L); if (x > 0) { unlock(L); } x = 1; lock(L); unlock(L);",
      // ABBA.
      "int x = 0; lock A; lock B;"
      "cobegin { thread T0 { lock(A); lock(B); x = 1; unlock(B); unlock(A); }"
      "          thread T1 { lock(B); lock(A); x = 2; unlock(A); unlock(B); } }",
      // A lock/unlock pair split across the arms of a loop-carried branch.
      "int x = 0, f = 0, i = 0; lock L;"
      "while (i < 4) { if (f == 0) { lock(L); } else { x = x + 1; unlock(L); }"
      "  f = 1 - f; i = i + 1; }",
      // Plain stores around a fence and an atomic store, in a loop.
      "int x = 0, y = 0, r = 0, i = 0;"
      "cobegin { thread T0 { while (i < 2) { x = 1; r = y; fence; y = 1;"
      "                        atomic_store(x, 2); y = 3; i = i + 1; } }"
      "          thread T1 { y = 1; r = atomic_load(x); x = r; fence; } }",
  };
  for (const char* src : shapes) {
    ir::Program prog = parser::parseOrDie(src);
    EXPECT_GT(expectWalksMatchReference(prog), 0u) << src;
  }
}

TEST(ReachabilityWalks, MatchReferenceOnLockRegions) {
  for (int k = 1; k <= 32; ++k) {
    ir::Program prog = parser::parseOrDie(workload::lockRegionSource(3, k));
    EXPECT_GT(expectWalksMatchReference(prog), 0u) << "k = " << k;
  }
}

}  // namespace
}  // namespace cssame
