// The TSO weak-memory layer: grammar, store-buffer machine semantics,
// the static pending-store-window analysis, and the SC-vs-TSO explorer
// oracle that cross-validates it.
//
// The contract under test (src/sanalysis/tso.h): an ad-hoc mutual
// exclusion protocol built from plain loads and stores is flagged
// (MutualExclusionNotJustifiedUnderTSO) exactly when a later shared load
// can complete while an earlier plain store of the same thread is still
// sitting in its store buffer — and the dynamic witness is the explorer
// run twice, where the critical-section variable joins racedVars only
// under MemoryModel::TSO. Fence-repaired variants must be clean under
// both models and must not trip the FenceRedundant lint.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/driver/runner.h"
#include "src/interp/explore.h"
#include "src/interp/machine.h"
#include "src/ir/printer.h"
#include "src/parser/parser.h"
#include "src/sanalysis/tso.h"

namespace cssame::sanalysis {
namespace {

// --- shared protocol sources ----------------------------------------

/// Peterson's algorithm from plain loads/stores: correct under SC,
/// broken under TSO (both entry stores can be buffered past the spin
/// reads — the store-buffering reordering).
constexpr const char* kPeterson = R"(
  int flag0, flag1, turn, data;
  cobegin {
    thread {
      flag0 = 1;
      turn = 1;
      while (flag1 == 1 && turn == 1) { }
      data = data + 1;
      flag0 = 0;
    }
    thread {
      flag1 = 1;
      turn = 0;
      while (flag0 == 1 && turn == 0) { }
      data = data + 1;
      flag1 = 0;
    }
  }
  print(data);
)";

/// Same protocol with the store->load fence each arm needs under TSO.
constexpr const char* kPetersonFenced = R"(
  int flag0, flag1, turn, data;
  cobegin {
    thread {
      flag0 = 1;
      turn = 1;
      fence;
      while (flag1 == 1 && turn == 1) { }
      data = data + 1;
      flag0 = 0;
    }
    thread {
      flag1 = 1;
      turn = 0;
      fence;
      while (flag0 == 1 && turn == 0) { }
      data = data + 1;
      flag1 = 0;
    }
  }
  print(data);
)";

/// The store-buffering litmus: r0 == r1 == 0 is unreachable under SC
/// and reachable under TSO.
constexpr const char* kStoreBuffering = R"(
  int x, y, r0, r1;
  cobegin {
    thread { x = 1; r0 = y; }
    thread { y = 1; r1 = x; }
  }
  print(r0); print(r1);
)";

constexpr const char* kStoreBufferingFenced = R"(
  int x, y, r0, r1;
  cobegin {
    thread { x = 1; fence; r0 = y; }
    thread { y = 1; fence; r1 = x; }
  }
  print(r0); print(r1);
)";

TsoReport analyzeTso(const char* src, DiagEngine* out = nullptr) {
  ir::Program p = parser::parseOrDie(src);
  driver::Compilation c = driver::analyze(p, {.warnings = false});
  DiagEngine diag;
  TsoReport r = runTso(c, diag);
  if (out != nullptr) *out = diag;
  return r;
}

interp::ExploreResult explore(const char* src, support::MemoryModel model) {
  interp::ExploreOptions opts;
  opts.maxSteps = 1u << 20;
  opts.maxStates = 1u << 17;
  opts.detectRaces = true;
  opts.model = model;
  return interp::exploreAllSchedules(parser::parseOrDie(src), opts);
}

// --- grammar: fence / atomic_store / atomic_load --------------------

TEST(TsoGrammar, FenceAndAtomicsRoundTripThroughThePrinter) {
  const char* src = R"(
    int x, y;
    cobegin {
      thread {
        atomic_store(x, y + 1);
        fence;
        y = atomic_load(x);
      }
      thread { atomic_store(y, 2); }
    }
    print(x); print(y);
  )";
  ir::Program p = parser::parseOrDie(src);
  const std::string printed = ir::printProgram(p);
  // The printed form must mention all three constructs...
  EXPECT_NE(printed.find("fence;"), std::string::npos) << printed;
  EXPECT_NE(printed.find("atomic_store(x, "), std::string::npos) << printed;
  EXPECT_NE(printed.find("y = atomic_load(x);"), std::string::npos) << printed;
  // ...and be a fixed point: parse(print(p)) prints identically.
  ir::Program reparsed = parser::parseOrDie(printed);
  EXPECT_EQ(ir::printProgram(reparsed), printed);
}

TEST(TsoGrammar, AtomicStatementsAreAtomicAssignsInTheIr) {
  ir::Program p = parser::parseOrDie(R"(
    int x, y;
    atomic_store(x, 1);
    y = atomic_load(x);
    x = 2;
  )");
  std::vector<bool> atomics;
  ir::forEachStmt(p.body, [&](ir::Stmt& s) {
    if (s.kind == ir::StmtKind::Assign) atomics.push_back(s.atomic);
  });
  EXPECT_EQ(atomics, (std::vector<bool>{true, true, false}));
}

TEST(TsoGrammar, MalformedAtomicsAreSyntaxErrors) {
  EXPECT_FALSE(parser::parseChecked("int x; x = atomic_load(1);").ok());
  EXPECT_FALSE(parser::parseChecked("int x; atomic_store(1, x);").ok());
  EXPECT_FALSE(parser::parseChecked("int x; atomic_store(x);").ok());
  EXPECT_FALSE(parser::parseChecked("fence(x);").ok());
  // The happy paths stay happy.
  EXPECT_TRUE(parser::parseChecked("int x; fence; atomic_store(x, 1);").ok());
}

// --- machine: store buffers, forwarding, fence gating ---------------

/// Drives `prog` (one cobegin with one thread) up to the point where the
/// child thread is spawned, returning the machine.
interp::Machine spawned(const ir::Program& prog, support::MemoryModel m) {
  interp::Machine machine(prog, m);
  machine.perform({0, false});  // main thread executes the cobegin
  return machine;
}

TEST(TsoMachine, BufferedStoreIsInvisibleUntilFlushed) {
  const ir::Program prog = parser::parseOrDie(R"(
    int x;
    cobegin { thread { x = 7; } }
  )");
  const SymbolId x = prog.symbols.lookup("x");
  ASSERT_TRUE(x.valid());

  interp::Machine m = spawned(prog, support::MemoryModel::TSO);
  m.perform({1, false});  // the store issues into thread 1's buffer
  EXPECT_EQ(m.valueOf(x), 0) << "buffered store leaked into memory";
  ASSERT_EQ(m.storeBufOf(1).size(), 1u);
  EXPECT_EQ(m.storeBufOf(1).front().first, x.index());
  EXPECT_EQ(m.storeBufOf(1).front().second, 7);

  m.perform({1, true});  // flush commits it
  EXPECT_EQ(m.valueOf(x), 7);
  EXPECT_TRUE(m.storeBufOf(1).empty());
}

TEST(TsoMachine, LoadsForwardFromOwnBufferNewestFirst) {
  const ir::Program prog = parser::parseOrDie(R"(
    int x, r;
    cobegin { thread { x = 1; x = 2; r = x; } }
  )");
  const SymbolId x = prog.symbols.lookup("x");
  const SymbolId r = prog.symbols.lookup("r");

  interp::Machine m = spawned(prog, support::MemoryModel::TSO);
  m.perform({1, false});  // x = 1 (buffered)
  m.perform({1, false});  // x = 2 (buffered behind it)
  ASSERT_EQ(m.storeBufOf(1).size(), 2u);
  m.perform({1, false});  // r = x must forward the *newest* entry
  // r is itself shared here, so its store is buffered too: newest entry.
  ASSERT_EQ(m.storeBufOf(1).size(), 3u);
  EXPECT_EQ(m.storeBufOf(1).back().first, r.index());
  EXPECT_EQ(m.storeBufOf(1).back().second, 2);
  EXPECT_EQ(m.valueOf(x), 0);  // nothing committed yet
}

TEST(TsoMachine, FlushesCommitInFifoOrder) {
  const ir::Program prog = parser::parseOrDie(R"(
    int x;
    cobegin { thread { x = 1; x = 2; } }
  )");
  const SymbolId x = prog.symbols.lookup("x");

  interp::Machine m = spawned(prog, support::MemoryModel::TSO);
  m.perform({1, false});
  m.perform({1, false});
  m.perform({1, true});  // oldest first: x = 1
  EXPECT_EQ(m.valueOf(x), 1);
  m.perform({1, true});
  EXPECT_EQ(m.valueOf(x), 2);
}

TEST(TsoMachine, FenceBlocksUntilOwnBufferDrains) {
  const ir::Program prog = parser::parseOrDie(R"(
    int x, y;
    cobegin { thread { x = 1; fence; y = 1; } }
  )");
  interp::Machine m = spawned(prog, support::MemoryModel::TSO);
  m.perform({1, false});  // x = 1 buffered; next stmt is the fence

  // With a pending store, the fence cannot run: the only enabled action
  // for thread 1 is the flush.
  std::vector<interp::Machine::Action> ready = m.readyActions();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready.front().thread, 1u);
  EXPECT_TRUE(ready.front().flush);

  m.perform({1, true});
  ready = m.readyActions();  // drained: the program step is enabled again
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_FALSE(ready.front().flush);
}

TEST(TsoMachine, AtomicStoreCommitsImmediately) {
  const ir::Program prog = parser::parseOrDie(R"(
    int x;
    cobegin { thread { atomic_store(x, 5); } }
  )");
  const SymbolId x = prog.symbols.lookup("x");
  interp::Machine m = spawned(prog, support::MemoryModel::TSO);
  m.perform({1, false});
  EXPECT_EQ(m.valueOf(x), 5);
  EXPECT_TRUE(m.storeBufOf(1).empty());
}

TEST(TsoMachine, StateHashSeesBufferedStores) {
  // The buffered and the flushed state can have identical memory (a
  // store writes the value the cell already holds); the fingerprints
  // must still differ, or the explorer would merge states that diverge
  // later. After the flush, the TSO state must hash exactly like the SC
  // machine at the same program point — same program object, so the
  // frame pointers the hash mixes are identical.
  const ir::Program prog = parser::parseOrDie(R"(
    int x;
    cobegin { thread { x = 0; } }
  )");
  interp::Machine tso = spawned(prog, support::MemoryModel::TSO);
  interp::Machine sc = spawned(prog, support::MemoryModel::SC);
  tso.perform({1, false});
  sc.perform({1, false});

  // x = 0 stored into memory holding 0: memory identical, buffer not.
  EXPECT_FALSE(tso.stateHash128() == sc.stateHash128());

  tso.perform({1, true});
  EXPECT_TRUE(tso.stateHash128() == sc.stateHash128());
}

// --- explorer: the SC-vs-TSO oracle ---------------------------------

TEST(TsoExplore, StoreBufferingLitmusReachesZeroZeroOnlyUnderTso) {
  const interp::ExploreResult sc =
      explore(kStoreBuffering, support::MemoryModel::SC);
  const interp::ExploreResult tso =
      explore(kStoreBuffering, support::MemoryModel::TSO);
  ASSERT_TRUE(sc.complete);
  ASSERT_TRUE(tso.complete);

  const std::vector<long long> zeroZero{0, 0};
  EXPECT_EQ(sc.outputs.count(zeroZero), 0u);
  EXPECT_EQ(tso.outputs.count(zeroZero), 1u);
  // TSO only adds behaviors, never removes any.
  for (const auto& out : sc.outputs)
    EXPECT_EQ(tso.outputs.count(out), 1u) << "SC output lost under TSO";
}

TEST(TsoExplore, FencedStoreBufferingIsSequentiallyConsistent) {
  const interp::ExploreResult sc =
      explore(kStoreBufferingFenced, support::MemoryModel::SC);
  const interp::ExploreResult tso =
      explore(kStoreBufferingFenced, support::MemoryModel::TSO);
  ASSERT_TRUE(sc.complete);
  ASSERT_TRUE(tso.complete);
  EXPECT_EQ(tso.outputs, sc.outputs);
}

TEST(TsoExplore, PetersonLosesMutualExclusionOnlyUnderTso) {
  const ir::Program prog = parser::parseOrDie(kPeterson);
  const SymbolId data = prog.symbols.lookup("data");
  ASSERT_TRUE(data.valid());

  const interp::ExploreResult sc = explore(kPeterson, support::MemoryModel::SC);
  const interp::ExploreResult tso =
      explore(kPeterson, support::MemoryModel::TSO);
  ASSERT_TRUE(sc.complete);
  ASSERT_TRUE(tso.complete);

  // Under SC the protocol holds: the flags race benignly but the
  // critical-section variable never has two co-enabled accesses, and the
  // counter always reaches 2.
  EXPECT_EQ(sc.racedVars.count(data), 0u);
  EXPECT_EQ(sc.outputs, (std::set<std::vector<long long>>{{2}}));

  // Under TSO both threads can pass the spin with their entry stores
  // still buffered: a state with both `data = data + 1` co-enabled (the
  // dynamic witness runTso predicts), and the lost update prints 1.
  EXPECT_EQ(tso.racedVars.count(data), 1u);
  EXPECT_EQ(tso.outputs.count({1}), 1u);
}

TEST(TsoExplore, FencedPetersonIsCorrectUnderBothModels) {
  const ir::Program prog = parser::parseOrDie(kPetersonFenced);
  const SymbolId data = prog.symbols.lookup("data");

  for (support::MemoryModel model :
       {support::MemoryModel::SC, support::MemoryModel::TSO}) {
    SCOPED_TRACE(support::memoryModelName(model));
    const interp::ExploreResult r = explore(kPetersonFenced, model);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.racedVars.count(data), 0u);
    EXPECT_EQ(r.outputs, (std::set<std::vector<long long>>{{2}}));
  }
}

// --- the static pass ------------------------------------------------

TEST(TsoStatic, PetersonIsFlaggedWithATwoSiteWitness) {
  DiagEngine diag;
  const TsoReport r = analyzeTso(kPeterson, &diag);
  ASSERT_GE(r.notJustified, 1u);
  EXPECT_EQ(r.redundantFences, 0u);
  EXPECT_EQ(diag.countOf(DiagCode::MutualExclusionNotJustifiedUnderTSO),
            r.notJustified);
  ASSERT_EQ(r.witnesses.size(), r.notJustified);
  for (const TsoWitness& w : r.witnesses) {
    EXPECT_TRUE(w.storeLoc.valid());
    EXPECT_TRUE(w.loadLoc.valid());
    EXPECT_NE(w.storeVar, w.loadVar) << "same-variable pairs forward, "
                                        "never reorder";
  }
  // The protocol variables are exactly what the reordering breaks.
  const ir::Program p = parser::parseOrDie(kPeterson);
  EXPECT_EQ(r.reorderedStores.count(p.symbols.lookup("flag0")) +
                r.reorderedStores.count(p.symbols.lookup("flag1")) +
                r.reorderedStores.count(p.symbols.lookup("turn")),
            r.reorderedStores.size());
  EXPECT_EQ(r.reorderedStores.count(p.symbols.lookup("data")), 0u);
}

TEST(TsoStatic, FencedPetersonIsCleanWithNoRedundantFences) {
  DiagEngine diag;
  const TsoReport r = analyzeTso(kPetersonFenced, &diag);
  EXPECT_EQ(r.notJustified, 0u);
  // Both fences are load-bearing: each orders a racy store before racy
  // spin reads.
  EXPECT_EQ(r.redundantFences, 0u);
  EXPECT_EQ(r.totalFindings(), 0u);
  EXPECT_EQ(diag.diagnostics().size(), 0u);
}

TEST(TsoStatic, StoreBufferingLitmusIsFlaggedAndItsFenceFixesIt) {
  EXPECT_GE(analyzeTso(kStoreBuffering).notJustified, 2u)
      << "both arms carry a reorderable store/load pair";
  const TsoReport fenced = analyzeTso(kStoreBufferingFenced);
  EXPECT_EQ(fenced.totalFindings(), 0u);
}

TEST(TsoStatic, LockBasedMutualExclusionIsNotFlagged) {
  // Locked operations drain the buffer; csan's SC verdict stays sound.
  const TsoReport r = analyzeTso(R"(
    int a, b; lock L;
    cobegin {
      thread { lock(L); a = 1; b = a + b; unlock(L); }
      thread { lock(L); b = 2; a = a + 1; unlock(L); }
    }
    print(a); print(b);
  )");
  EXPECT_EQ(r.totalFindings(), 0u);
}

TEST(TsoStatic, AtomicProtocolIsNotFlagged) {
  // atomic_store never enters the buffer and atomic_load waits for it to
  // drain, so an all-atomic flag protocol has no reorderable pair.
  const TsoReport r = analyzeTso(R"(
    int flag, data;
    cobegin {
      thread { data = 1; atomic_store(flag, 1); }
      thread {
        int seen;
        seen = atomic_load(flag);
        while (seen == 0) { seen = atomic_load(flag); }
        print(data);
      }
    }
  )");
  EXPECT_EQ(r.notJustified, 0u);
}

TEST(TsoStatic, PrivateAndSequentialStoresDoNotPair) {
  // Pending windows only track *shared* stores, and both ends of a pair
  // must be racy: a single-threaded program (or private accumulators)
  // can never produce a witness.
  const TsoReport seq = analyzeTso(R"(
    int x, y;
    x = 1;
    y = x + 1;
    print(y);
  )");
  EXPECT_EQ(seq.totalFindings(), 0u);

  const TsoReport priv = analyzeTso(R"(
    int s;
    cobegin {
      thread { int p; p = 1; p = p + 1; s = s + p; }
      thread { int q; q = 2; print(q); }
    }
  )");
  EXPECT_EQ(priv.notJustified, 0u);
}

TEST(TsoStatic, FenceWithEmptyWindowIsRedundant) {
  DiagEngine diag;
  const TsoReport r = analyzeTso(R"(
    int a;
    cobegin {
      thread { fence; a = 1; }
      thread { a = 2; }
    }
    print(a);
  )", &diag);
  EXPECT_EQ(r.redundantFences, 1u);
  EXPECT_EQ(diag.countOf(DiagCode::FenceRedundant), 1u);
}

TEST(TsoStatic, FenceOrderingOnlyUnobservableStoresIsRedundant) {
  // `a` is touched by one thread only: the buffered store can never be
  // observed out of order, so the fence draining it orders nothing.
  const TsoReport r = analyzeTso(R"(
    int a, b;
    cobegin {
      thread { a = 1; fence; b = b + 1; }
      thread { b = b + 2; }
    }
    print(a); print(b);
  )");
  EXPECT_EQ(r.redundantFences, 1u);
  EXPECT_EQ(r.notJustified, 0u);
}

// --- runner integration ---------------------------------------------

TEST(TsoRunner, TsoFlagRendersDiagnosticsAndSummary) {
  driver::RunOptions o;
  o.doTso = true;
  const driver::RunOutput broken =
      driver::runSource(kPeterson, "peterson.cp", o);
  EXPECT_NE(broken.err.find("mutual-exclusion-not-justified-under-tso"),
            std::string::npos)
      << broken.err;
  EXPECT_NE(broken.err.find("tso:"), std::string::npos);

  const driver::RunOutput fenced =
      driver::runSource(kPetersonFenced, "peterson_fenced.cp", o);
  EXPECT_EQ(fenced.err.find("mutual-exclusion-not-justified-under-tso"),
            std::string::npos)
      << fenced.err;
  EXPECT_NE(fenced.err.find("tso: 0 finding(s)"), std::string::npos)
      << fenced.err;
}

TEST(TsoRunner, CacheKeySeparatesModelsAndPasses) {
  driver::RunOptions sc;
  driver::RunOptions tso = sc;
  tso.memoryModel = support::MemoryModel::TSO;
  EXPECT_NE(sc.cacheKey(), tso.cacheKey());

  driver::RunOptions withPass = sc;
  withPass.doTso = true;
  EXPECT_NE(sc.cacheKey(), withPass.cacheKey());
}

TEST(TsoRunner, SeededTsoRunIsDeterministic) {
  driver::RunOptions o;
  o.doRun = true;
  o.seed = 42;
  o.memoryModel = support::MemoryModel::TSO;
  const driver::RunOutput a = driver::runSource(kPeterson, "p.cp", o);
  const driver::RunOutput b = driver::runSource(kPeterson, "p.cp", o);
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(a.err, b.err);
  EXPECT_EQ(a.code, b.code);
}

// --- per-run checks over the factored Ecf ------------------------------
//
// The racy-site index walks Ecf run by run, as csan does; the witness
// partner of each racy access is still the first unprotected concurrent
// one in Ecf order. The expected text is what the per-edge sweep
// printed.

const char* const kEventOrdered = R"(int x, y, r1, r2; event e;
cobegin {
  thread { x = 1; r1 = y; set(e); }
  thread { wait(e); y = 2; x = 3; }
  thread { y = 1; r2 = x; }
}
print(r1); print(r2);
)";
const char* const kBarrierSeparated = R"(int x, y, r1, r2;
cobegin {
  thread { x = 1; r1 = y; barrier; }
  thread { barrier; y = 2; x = 3; }
  thread { y = 1; r2 = x; barrier; }
}
print(r1); print(r2);
)";
const char* const kPartlyLockedRun = R"(int x, y, r1, r2; lock L;
cobegin {
  thread { lock(L); x = 1; r1 = y; unlock(L); }
  thread { lock(L); y = 2; x = 2; unlock(L); y = 3; r2 = x; }
}
print(r1); print(r2);
)";

std::string tsoText(const char* src) {
  driver::RunOptions o;
  o.doTso = true;
  return driver::runSource(src, "shape.cp", o).err;
}

TEST(TsoRuns, EventOrderedPartnerIsSkipped) {
  // T0's read of y is observable through T2's write, not through T1's,
  // which runs after set(e).
  EXPECT_EQ(tsoText(kEventOrdered), R"txt(warning [mutual-exclusion-not-justified-under-tso] 3:19: under TSO this read of shared variable 'y' may complete while the thread's earlier store to 'x' is still buffered; the store/load pair cannot justify mutual exclusion
  note 3:12: plain store to 'x' issued here, with no fence, atomic access or lock before the read
  note 5:19: a concurrent thread reads 'x' here and can miss the buffered value
  note 5:12: a concurrent thread writes 'y' here, making the early read observable
  note 2:1: the threads run in arms 0 and 2 of this cobegin and may interleave
  note insert 'fence;' between the store and the read, or make the protocol accesses atomic_store/atomic_load
warning [mutual-exclusion-not-justified-under-tso] 5:19: under TSO this read of shared variable 'x' may complete while the thread's earlier store to 'y' is still buffered; the store/load pair cannot justify mutual exclusion
  note 5:12: plain store to 'y' issued here, with no fence, atomic access or lock before the read
  note 4:21: a concurrent thread writes 'y' here and can miss the buffered value
  note 3:12: a concurrent thread writes 'x' here, making the early read observable
  note 2:1: the threads run in arms 2 and 0 of this cobegin and may interleave
  note insert 'fence;' between the store and the read, or make the protocol accesses atomic_store/atomic_load
tso: 2 finding(s): 2 reorderable store/load pair(s), 0 redundant fence(s)
)txt");
}

TEST(TsoRuns, BarrierSeparatedPartnerIsSkipped) {
  EXPECT_EQ(tsoText(kBarrierSeparated), R"txt(warning [mutual-exclusion-not-justified-under-tso] 3:19: under TSO this read of shared variable 'y' may complete while the thread's earlier store to 'x' is still buffered; the store/load pair cannot justify mutual exclusion
  note 3:12: plain store to 'x' issued here, with no fence, atomic access or lock before the read
  note 5:19: a concurrent thread reads 'x' here and can miss the buffered value
  note 5:12: a concurrent thread writes 'y' here, making the early read observable
  note 2:1: the threads run in arms 0 and 2 of this cobegin and may interleave
  note insert 'fence;' between the store and the read, or make the protocol accesses atomic_store/atomic_load
warning [mutual-exclusion-not-justified-under-tso] 5:19: under TSO this read of shared variable 'x' may complete while the thread's earlier store to 'y' is still buffered; the store/load pair cannot justify mutual exclusion
  note 5:12: plain store to 'y' issued here, with no fence, atomic access or lock before the read
  note 3:19: a concurrent thread reads 'y' here and can miss the buffered value
  note 3:12: a concurrent thread writes 'x' here, making the early read observable
  note 2:1: the threads run in arms 2 and 0 of this cobegin and may interleave
  note insert 'fence;' between the store and the read, or make the protocol accesses atomic_store/atomic_load
tso: 2 finding(s): 2 reorderable store/load pair(s), 0 redundant fence(s)
)txt");
}

TEST(TsoRuns, LockedMembersOfARunAreSkipped) {
  // T1's `y = 2` and `x = 2` hold L, as T0's accesses do, so T0's
  // store to x is observable only through T1's unlocked `r2 = x`.
  EXPECT_EQ(tsoText(kPartlyLockedRun), R"txt(warning [mutual-exclusion-not-justified-under-tso] 3:28: under TSO this read of shared variable 'y' may complete while the thread's earlier store to 'x' is still buffered; the store/load pair cannot justify mutual exclusion
  note 3:21: plain store to 'x' issued here, with no fence, atomic access or lock before the read
  note 4:53: a concurrent thread reads 'x' here and can miss the buffered value
  note 4:46: a concurrent thread writes 'y' here, making the early read observable
  note 2:1: the threads run in arms 0 and 1 of this cobegin and may interleave
  note insert 'fence;' between the store and the read, or make the protocol accesses atomic_store/atomic_load
warning [mutual-exclusion-not-justified-under-tso] 4:53: under TSO this read of shared variable 'x' may complete while the thread's earlier store to 'y' is still buffered; the store/load pair cannot justify mutual exclusion
  note 4:46: plain store to 'y' issued here, with no fence, atomic access or lock before the read
  note 3:28: a concurrent thread reads 'y' here and can miss the buffered value
  note 3:21: a concurrent thread writes 'x' here, making the early read observable
  note 2:1: the threads run in arms 1 and 0 of this cobegin and may interleave
  note insert 'fence;' between the store and the read, or make the protocol accesses atomic_store/atomic_load
tso: 2 finding(s): 2 reorderable store/load pair(s), 0 redundant fence(s)
)txt");
}

}  // namespace
}  // namespace cssame::sanalysis
