// Synchronization diagnostics (paper Section 6): the compiler warns about
// unmatched Lock/Unlock operations and ill-formed mutex bodies, and csan's
// lock-discipline checks (what `cssamec --races` prints) warn about
// potential data races, inconsistent locking and lock-order deadlocks.
//
//   $ ./race_detective
#include <cstdio>

#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"

using namespace cssame;

namespace {

void report(const char* title, const char* source) {
  std::printf("=== %s ===\n", title);
  ir::Program prog = parser::parseOrDie(source);
  driver::Compilation c = driver::analyze(prog);
  const sanalysis::CsanReport races = sanalysis::runLockChecks(c, c.diag());
  if (c.diag().diagnostics().empty()) {
    std::printf("  no warnings\n");
  } else {
    for (const auto& d : c.diag().diagnostics())
      std::printf("  %s\n", d.str().c_str());
  }
  std::printf("  (%zu inconsistent-locking, %zu racing site pair(s))\n\n",
              races.inconsistentLocking,
              races.potentialRaces + races.mayAliasRaces);
}

}  // namespace

int main() {
  report("Clean program", R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = a + 1; unlock(L); }
      thread { lock(L); a = a + 2; unlock(L); }
    }
    print(a);
  )");

  report("Unprotected concurrent writes", R"(
    int a;
    cobegin {
      thread { a = 1; }
      thread { a = 2; }
    }
    print(a);
  )");

  report("Inconsistent locks (L1 vs L2)", R"(
    int a; lock L1, L2;
    cobegin {
      thread { lock(L1); a = a + 1; unlock(L1); }
      thread { lock(L2); a = a + 2; unlock(L2); }
    }
    print(a);
  )");

  report("Unmatched lock (conditional unlock)", R"(
    int a, c; lock L;
    cobegin {
      thread {
        lock(L);
        a = a + 1;
        if (c > 0) { unlock(L); } else { a = 0; unlock(L); }
      }
      thread { lock(L); a = a + 2; unlock(L); }
    }
    print(a);
  )");

  report("ABBA deadlock (opposite lock orders)", R"(
    int a; lock L, M;
    cobegin {
      thread { lock(L); lock(M); a = a + 1; unlock(M); unlock(L); }
      thread { lock(M); lock(L); a = a + 2; unlock(L); unlock(M); }
    }
    print(a);
  )");

  report("Ill-formed body (nested same-lock lock)", R"(
    int a; lock L;
    cobegin {
      thread { lock(L); lock(L); a = a + 1; unlock(L); unlock(L); }
      thread { lock(L); a = a + 2; unlock(L); }
    }
    print(a);
  )");
  return 0;
}
