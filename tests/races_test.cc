// Unit tests for the lock-consistency data race warnings (Section 6), as
// csan's lock-discipline checks (sanalysis::runLockChecks) report them:
// the variables some race warning names, and the inconsistent-locking
// warnings.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::sanalysis {
namespace {

using Vars = std::set<std::string>;

struct Case {
  const char* name;
  std::string src;
  Vars racedVars;
  std::size_t inconsistentLocking;
};

const Case kCases[] = {
    {"CleanLockedProgram", R"(int a; lock L; cobegin {
       thread { lock(L); a = a + 1; unlock(L); }
       thread { lock(L); a = a + 2; unlock(L); } } print(a);)", {}, 0},
    {"UnprotectedWriteWrite",
     "int a; cobegin { thread { a = 1; } thread { a = 2; } } print(a);",
     {"a"}, 0},
    {"UnprotectedWriteRead",
     "int a, b; cobegin { thread { a = 1; } thread { b = a; } } print(b);",
     {"a"}, 0},
    {"DifferentLocksAreInconsistent", R"(int a; lock L1, L2; cobegin {
       thread { lock(L1); a = a + 1; unlock(L1); }
       thread { lock(L2); a = a + 2; unlock(L2); } } print(a);)", {"a"}, 1},
    {"HalfProtectedWrite", R"(int a; lock L; cobegin {
       thread { lock(L); a = a + 1; unlock(L); }
       thread { a = 2; } } print(a);)", {"a"}, 1},
    {"OrderedBySetWaitIsNoRace", R"(int a; event e; cobegin {
       thread { a = 1; set(e); } thread { wait(e); print(a); } })", {}, 0},
    {"SequentialAccessesNoWarning", R"(int a; a = 1; a = 2; cobegin {
       thread { int p; p = 1; } thread { int q; q = 2; } } print(a);)", {},
     0},
    {"TwoCommonLocksNoRace", R"(int a; lock L, M; cobegin {
       thread { lock(L); lock(M); a = a + 1; unlock(M); unlock(L); }
       thread { lock(L); lock(M); a = a + 2; unlock(M); unlock(L); } }
       print(a);)", {}, 0},
    {"RaceInNestedCobegin", R"(int a; cobegin {
       thread { cobegin { thread { a = 1; } thread { a = 2; } } }
       thread { int p; p = 3; } } print(a);)", {"a"}, 0},
    // A write that can run in parallel with no other access holds
    // whatever locks it likes: initialisers and sequential writes around
    // a cobegin do not make a locked variable inconsistent.
    {"InitializedLockedCounter", R"(int x = 0; lock L; cobegin {
       thread { lock(L); x = x + 1; unlock(L); }
       thread { lock(L); x = x + 1; unlock(L); } } print(x);)", {}, 0},
    {"SequentialWritesAroundCobegin", R"(int x; lock L; x = 1; cobegin {
       thread { lock(L); x = x + 1; unlock(L); }
       thread { lock(L); x = x + 2; unlock(L); } } x = 5; print(x);)", {},
     0},
    // Figure 1's unlocked f(a) races with T0's locked write.
    {"Figure1", workload::figure1Source(), {"a"}, 0},
    {"Figure2", workload::figure2Source(), {}, 0},
    {"LockRegions", workload::lockRegionSource(3, 16), {}, 0},
};

TEST(Races, Verdicts) {
  for (const Case& k : kCases) {
    ir::Program p = parser::parseOrDie(k.src);
    driver::Compilation c = driver::analyze(p, {.warnings = false});
    DiagEngine diag;
    const CsanReport r = runLockChecks(c, diag);
    Vars raced;
    for (SymbolId var : r.racedVars)
      raced.insert(c.program().symbols.nameOf(var));
    EXPECT_EQ(raced, k.racedVars) << k.name;
    EXPECT_EQ(r.inconsistentLocking, k.inconsistentLocking) << k.name;
    EXPECT_EQ(diag.countOf(DiagCode::InconsistentLocking),
              k.inconsistentLocking)
        << k.name;
  }
}

TEST(Races, InconsistentWarningNotesOnlyConcurrentWrites) {
  ir::Program p = parser::parseOrDie(R"(
    int x = 0; lock L, M;
    cobegin {
      thread { lock(L); x = x + 1; unlock(L); }
      thread { lock(M); x = x + 2; unlock(M); }
    }
    x = 9;
    print(x);
  )");
  driver::Compilation c = driver::analyze(p, {.warnings = false});
  DiagEngine diag;
  EXPECT_EQ(runLockChecks(c, diag).inconsistentLocking, 1u);
  for (const Diagnostic& d : diag.diagnostics())
    if (d.code == DiagCode::InconsistentLocking) {
      ASSERT_EQ(d.notes.size(), 2u) << d.str();
      EXPECT_EQ(d.loc.line, 4u);  // anchored at T0's write
      EXPECT_EQ(d.notes[0].loc.line, 4u);
      EXPECT_EQ(d.notes[1].loc.line, 5u);
    }
}

}  // namespace
}  // namespace cssame::sanalysis
