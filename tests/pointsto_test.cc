// Tests for the concurrent points-to analysis and the alias-class keying
// it feeds: PtSet lattice laws, per-site precision, the π-driven
// concurrency refinement, a dynamic soundness sweep against exhaustive
// schedule exploration, and the scalar transcription guarantee (an
// explicitly installed identity partition reproduces the identity fast
// path bit for bit).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/analysis/concurrency.h"
#include "src/analysis/dominance.h"
#include "src/cssa/cssa.h"
#include "src/cssa/form_printer.h"
#include "src/cssa/rewrite.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/mutex/mutex_structures.h"
#include "src/parser/parser.h"
#include "src/pfg/graph.h"
#include "src/sanalysis/csan.h"
#include "src/sanalysis/pointsto.h"
#include "src/ssa/ssa.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::sanalysis {
namespace {

PtSet pts(std::initializer_list<SymbolId> locs) {
  PtSet s;
  s.locs = locs;
  return s;
}

SymbolId sym(std::uint32_t i) {
  return SymbolId{static_cast<SymbolId::value_type>(i)};
}

// --- PtSet lattice ---------------------------------------------------

TEST(PtSetLattice, JoinGrowsMonotonically) {
  PtSet a = pts({sym(1)});
  EXPECT_TRUE(a.join(pts({sym(2)})));
  EXPECT_EQ(a, pts({sym(1), sym(2)}));
  EXPECT_FALSE(a.join(pts({sym(1)})));  // no growth
  EXPECT_TRUE(a.join(PtSet::any()));
  EXPECT_TRUE(a.anywhere);
  EXPECT_FALSE(a.join(pts({sym(3)})));  // ⊤ absorbs everything
}

TEST(PtSetLattice, EmptyIsBottom) {
  PtSet n;  // ∅ = "exactly null"
  EXPECT_TRUE(n.empty());
  EXPECT_FALSE(n.join(PtSet{}));
  EXPECT_TRUE(n.join(pts({sym(4)})));
  EXPECT_EQ(n, pts({sym(4)}));
}

TEST(PtSetLattice, MeetIntersectsWithTopIdentity) {
  PtSet a = pts({sym(1), sym(2)});
  a.meet(PtSet::any());  // ⊤ is the meet identity
  EXPECT_EQ(a, pts({sym(1), sym(2)}));

  PtSet t = PtSet::any();
  t.meet(pts({sym(2)}));  // meet with ⊤ on the left adopts the other side
  EXPECT_EQ(t, pts({sym(2)}));

  PtSet b = pts({sym(1), sym(2), sym(3)});
  b.meet(pts({sym(2), sym(3), sym(4)}));
  EXPECT_EQ(b, pts({sym(2), sym(3)}));

  PtSet c = pts({sym(1)});
  c.meet(pts({sym(2)}));
  EXPECT_TRUE(c.empty());
}

// --- pipeline integration --------------------------------------------

driver::Compilation analyzeSrc(const char* src, ir::Program& storage) {
  storage = parser::parseOrDie(src);
  return driver::analyze(storage, {.warnings = false});
}

TEST(PointsTo, ScalarProgramTakesFastPath) {
  ir::Program p;
  driver::Compilation c = analyzeSrc(R"(
    int a, b; lock L;
    cobegin {
      thread T0 { lock(L); a = a + 1; unlock(L); }
      thread T1 { lock(L); b = a; unlock(L); }
    }
    print(a); print(b);
  )", p);
  EXPECT_EQ(c.pointsTo(), nullptr);
  EXPECT_TRUE(c.graph().aliases.identity());
}

TEST(PointsTo, ArrayOnlyProgramNeedsNoSolve) {
  // `a[i]` names its array syntactically: no deref, no points-to solve,
  // and the identity partition already keys both accesses to `a`.
  ir::Program p;
  driver::Compilation c = analyzeSrc(R"(
    int a[4]; int i, j;
    i = 0; j = 1;
    cobegin {
      thread T0 { a[i] = 1; }
      thread T1 { a[j] = 2; }
    }
    print(a[0]);
  )", p);
  EXPECT_EQ(c.pointsTo(), nullptr);
  EXPECT_TRUE(c.graph().aliases.identity());
  const SymbolId a = p.symbols.lookup("a");
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(c.graph().aliases.repOf(a), a);
}

TEST(PointsTo, SingleTargetDerefIsExact) {
  ir::Program p;
  driver::Compilation c = analyzeSrc(R"(
    int x, out, ptr;
    ptr = &x;
    *ptr = 5;
    out = *ptr;
    print(out);
  )", p);
  const PointsToResult* pt = c.pointsTo();
  ASSERT_NE(pt, nullptr);
  const SymbolId x = p.symbols.lookup("x");

  ASSERT_EQ(pt->storePts.size(), 1u);
  EXPECT_EQ(pt->storePts.begin()->second, pts({x}));
  ASSERT_EQ(pt->loadPts.size(), 1u);
  EXPECT_EQ(pt->loadPts.begin()->second, pts({x}));
  EXPECT_EQ(pt->stats.anywhereSites, 0u);
  EXPECT_TRUE(pt->stats.converged);
}

TEST(PointsTo, SparseChainsBeatFlowInsensitiveStore) {
  // p is retargeted between the two stores. A purely flow-insensitive
  // answer would say {x, y} at both; the sparse SSA chains pin each
  // store to its one live target.
  ir::Program p;
  driver::Compilation c = analyzeSrc(R"(
    int x, y, ptr;
    ptr = &x;
    *ptr = 1;
    ptr = &y;
    *ptr = 2;
    print(x); print(y);
  )", p);
  const PointsToResult* pt = c.pointsTo();
  ASSERT_NE(pt, nullptr);
  const SymbolId x = p.symbols.lookup("x");
  const SymbolId y = p.symbols.lookup("y");

  ASSERT_EQ(pt->storePts.size(), 2u);
  std::set<SymbolId> all;
  for (const auto& [stmt, set] : pt->storePts) {
    EXPECT_FALSE(set.anywhere);
    EXPECT_EQ(set.locs.size(), 1u);
    all.insert(set.locs.begin(), set.locs.end());
  }
  EXPECT_EQ(all, (std::set<SymbolId>{x, y}));
  // Precise targets keep x and y in separate alias classes.
  EXPECT_NE(c.graph().aliases.repOf(x), c.graph().aliases.repOf(y));
}

TEST(PointsTo, DisjointPointeesStaySeparateClasses) {
  ir::Program p;
  driver::Compilation c = analyzeSrc(R"(
    int x, y, ptrA, ptrB; lock m;
    ptrA = &x; ptrB = &y;
    cobegin {
      thread T0 { lock(m); *ptrA = 1; unlock(m); }
      thread T1 { lock(m); *ptrB = 2; unlock(m); }
    }
    print(x); print(y);
  )", p);
  const SymbolId x = p.symbols.lookup("x");
  const SymbolId y = p.symbols.lookup("y");
  EXPECT_NE(c.graph().aliases.repOf(x), c.graph().aliases.repOf(y));

  // Lock-protected disjoint stores: nothing for csan to report.
  DiagEngine diag;
  const CsanReport r = runCsan(c, diag);
  EXPECT_EQ(r.totalFindings(), 0u);
}

TEST(PointsTo, NullPointerDerefHasEmptySet) {
  ir::Program p;
  driver::Compilation c = analyzeSrc(R"(
    int out, ptr;
    ptr = 0;
    out = *ptr;
    print(out);
  )", p);
  const PointsToResult* pt = c.pointsTo();
  ASSERT_NE(pt, nullptr);
  ASSERT_EQ(pt->loadPts.size(), 1u);
  EXPECT_TRUE(pt->loadPts.begin()->second.empty());
  // An always-null load touches no location: its class key is invalid.
  EXPECT_FALSE(
      c.graph().aliases.derefLoadClass(pt->loadPts.begin()->first).valid());
}

TEST(PointsTo, ArbitraryIntegerPointerIsWild) {
  ir::Program p;
  driver::Compilation c = analyzeSrc(R"(
    int x, ptr;
    ptr = 7;
    *ptr = 1;
    print(x);
  )", p);
  const PointsToResult* pt = c.pointsTo();
  ASSERT_NE(pt, nullptr);
  ASSERT_EQ(pt->storePts.size(), 1u);
  EXPECT_TRUE(pt->storePts.begin()->second.anywhere);
  EXPECT_EQ(pt->stats.anywhereSites, 1u);
}

TEST(PointsTo, ConcurrentRetargetFlowsThroughPi) {
  // Thread A retargets the shared pointer while thread B stores through
  // it. The π conflict arguments placed from the MHP relation must union
  // A's new target into B's deref, so the store may touch both x and y.
  ir::Program p;
  driver::Compilation c = analyzeSrc(R"(
    int x, y, ptr; lock m;
    ptr = &x;
    cobegin {
      thread A { lock(m); ptr = &y; unlock(m); }
      thread B { lock(m); *ptr = 3; unlock(m); }
    }
    print(x); print(y);
  )", p);
  const PointsToResult* pt = c.pointsTo();
  ASSERT_NE(pt, nullptr);
  const SymbolId x = p.symbols.lookup("x");
  const SymbolId y = p.symbols.lookup("y");

  ASSERT_EQ(pt->storePts.size(), 1u);
  const PtSet& store = pt->storePts.begin()->second;
  EXPECT_FALSE(store.anywhere);
  EXPECT_TRUE(store.locs.contains(x));
  EXPECT_TRUE(store.locs.contains(y));
  // Both pointees land in one alias class: the deref site may touch
  // either, so downstream passes must treat them as one location.
  EXPECT_EQ(c.graph().aliases.repOf(x), c.graph().aliases.repOf(y));
}

TEST(PointsTo, FormatPtSet) {
  ir::Program p = parser::parseOrDie("int a, b; a = 1; b = 2; print(a);");
  const SymbolId a = p.symbols.lookup("a");
  const SymbolId b = p.symbols.lookup("b");
  EXPECT_EQ(formatPtSet(PtSet{}, p.symbols), "{}");
  EXPECT_EQ(formatPtSet(PtSet::any(), p.symbols), "{anywhere}");
  EXPECT_EQ(formatPtSet(pts({a, b}), p.symbols), "{a, b}");
}

// --- dynamic soundness sweep -----------------------------------------

/// Explores every schedule and checks that each dynamically raced cell's
/// alias class is statically reported. Returns the dynamic race count so
/// callers can assert the sweep exercised real races.
std::size_t expectNoFalseNegatives(ir::Program prog) {
  DiagEngine diag;
  driver::Compilation comp = driver::analyze(prog);
  const CsanReport report = runCsan(comp, diag);
  const ir::AliasClasses& aliases = comp.graph().aliases;

  interp::ExploreOptions opts;
  opts.detectRaces = true;
  opts.maxSteps = 1u << 17;
  opts.maxStates = 1u << 15;
  const interp::ExploreResult dyn = interp::exploreAllSchedules(prog, opts);

  for (SymbolId v : dyn.racedVars) {
    EXPECT_TRUE(report.racedVars.contains(aliases.repOf(v)))
        << "dynamic race on '" << prog.symbols.nameOf(v)
        << "' missed by the static alias engine (seed program)";
  }
  return dyn.racedVars.size();
}

TEST(PointsToSoundness, GeneratedPointerWorkloads) {
  std::size_t dynamicRaces = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 100 + seed;
    cfg.threads = 2;
    cfg.sharedVars = 3;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 3);
    cfg.determinate = false;
    cfg.ptrProb = 0.5;
    dynamicRaces += expectNoFalseNegatives(workload::generateRandom(cfg));
  }
  EXPECT_GT(dynamicRaces, 0u) << "sweep never produced a racy program";
}

TEST(PointsToSoundness, GeneratedArrayWorkloads) {
  // The generator's array updates are always lock protected, so the
  // sweep's dynamic races come from the plain unlocked shared updates
  // interleaved with them; the hand-written aliased-index program below
  // guarantees the sweep sees at least one true array race.
  std::size_t dynamicRaces = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 300 + seed;
    cfg.threads = 2;
    cfg.sharedVars = 2;
    cfg.locks = 1;
    cfg.stmtsPerThread = 5;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = (seed % 2) == 0 ? 0.5 : 0.0;
    cfg.determinate = false;
    cfg.arrayProb = 0.35;
    dynamicRaces += expectNoFalseNegatives(workload::generateRandom(cfg));
  }
  dynamicRaces += expectNoFalseNegatives(parser::parseOrDie(R"(
    int a[4]; int i, j;
    i = 0; j = i;
    cobegin {
      thread T0 { a[i] = 1; }
      thread T1 { a[j] = 2; }
    }
    print(a[0]);
  )"));
  EXPECT_GT(dynamicRaces, 0u) << "sweep never produced a racy program";
}

// --- scalar transcription --------------------------------------------

/// Runs the full analysis stack by hand — the same phase sequence as
/// driver::Compilation — and renders everything the class keying could
/// perturb: the printed CSSAME form plus every Ecf edge. (Esync comes from
/// the MHP relation alone, which no partition touches.)
/// With `explicitIdentity` the identity partition is installed as an
/// explicit rep table, so repOf/singleton/classShared take their
/// map-backed paths instead of the rep_.empty() fast path.
std::string buildAndRender(ir::Program& prog, bool explicitIdentity) {
  pfg::Graph graph = pfg::buildPfg(prog);
  if (explicitIdentity) {
    // setPartition normalizes a fully trivial table back to the identity
    // unless a deref site is registered; pin it with a sentinel entry no
    // scalar program can ever query (there is no Deref expression).
    graph.aliases.setDerefLoad(nullptr, SymbolId{});
    std::vector<SymbolId> rep(prog.symbols.size());
    for (std::size_t i = 0; i < rep.size(); ++i)
      rep[i] = sym(static_cast<std::uint32_t>(i));
    graph.aliases.setPartition(std::move(rep), prog.symbols);
    EXPECT_FALSE(graph.aliases.identity());
  }
  analysis::Dominators dom(graph, analysis::Dominators::Direction::Forward);
  analysis::Dominators pdom(graph, analysis::Dominators::Direction::Reverse);
  analysis::Mhp mhp(graph, dom);
  const analysis::AccessSites sites = analysis::collectAccessSites(graph);
  analysis::computeConflictEdges(graph, mhp, sites);
  mutex::MutexStructures mutexes(graph, dom, pdom, nullptr);
  ssa::SsaForm form = ssa::buildSequentialSsa(graph, dom);
  cssa::placePiTerms(graph, form, mhp, sites);
  cssa::rewritePiTerms(graph, form, mutexes);

  std::string out = cssa::printForm(graph, form);
  out += "--- edges ---\n";
  for (const pfg::ConflictEdge& e : graph.conflicts)
    out += "ecf " + std::to_string(e.from.index()) + " -> " +
           std::to_string(e.to.index()) + " var " +
           prog.symbols.nameOf(e.var) + (e.toIsDef ? " DD" : " DU") + "\n";
  return out;
}

/// The heart of the alias-class refactor's compatibility claim: on a
/// scalar-only program, class keying with an explicit identity partition
/// transcribes the original symbol-keyed construction bit for bit.
void expectTranscription(const char* src) {
  ir::Program base = parser::parseOrDie(src);
  ir::Program keyed = parser::parseOrDie(src);
  EXPECT_EQ(buildAndRender(base, false), buildAndRender(keyed, true)) << src;
}

TEST(Transcription, ScalarProgramsAreBitIdentical) {
  expectTranscription(workload::figure1Source());
  expectTranscription(workload::figure2Source());
  expectTranscription(R"(
    int a, b, c; lock L, M;
    cobegin {
      thread T0 { lock(L); a = a + 1; unlock(L); b = 2; }
      thread T1 { lock(L); a = a + 2; unlock(L); lock(M); c = a; unlock(M); }
      thread T2 { c = b + a; }
    }
    print(a); print(b); print(c);
  )");
  expectTranscription(R"(
    int x, y; lock L;
    cobegin {
      thread A {
        while (x < 3) { lock(L); x = x + 1; unlock(L); }
      }
      thread B {
        if (y) { lock(L); y = x; unlock(L); } else { y = 1; }
      }
    }
    print(x); print(y);
  )");
}

TEST(Transcription, GeneratedScalarWorkloadsAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 3;
    cfg.stmtsPerThread = 8;
    cfg.determinate = (seed % 2) == 0;
    ir::Program base = workload::generateRandom(cfg);
    ir::Program keyed = workload::generateRandom(cfg);
    EXPECT_EQ(buildAndRender(base, false), buildAndRender(keyed, true))
        << "seed " << seed;
  }
}

/// End-to-end variant: the full diagnostic surface (csan) on a scalar
/// program is unchanged by the presence of the pointer machinery in the
/// pipeline — the fast path really is taken.
TEST(Transcription, CsanScalarReportsUnchanged) {
  ir::Program p;
  driver::Compilation c = analyzeSrc(workload::figure1Source(), p);
  ASSERT_EQ(c.pointsTo(), nullptr);
  DiagEngine diag;
  const CsanReport r = runCsan(c, diag);
  EXPECT_EQ(r.mayAliasRaces, 0u);  // no alias findings without pointers
  EXPECT_GE(r.potentialRaces, 1u);  // Figure 1's race still found
}

}  // namespace
}  // namespace cssame::sanalysis
