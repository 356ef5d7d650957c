// Concurrency regression for driver::Compilation's lazily-computed
// analysis cache.
//
// The analysis service shares one Compilation between concurrent
// requests: two csan requests for the same source hit the same cached
// artifact and both force heldLocks() on first use. Before lazyMutex_
// that accessor was check-then-build on a plain unique_ptr — two threads
// would race the build and one would use a half-constructed solver. This
// test drives every lazy accessor from many threads at once; run under
// ThreadSanitizer (the `tsan` CI job) it is the regression proof, and
// under the plain build it still checks that all threads observe one
// consistent solve.
//
// The same sharing applies to the immutable analyses every request reads:
// cssamed with several workers answers MHP queries and runs csan on one
// Compilation from many threads at once, so those must be plain reads.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"

namespace cssame {
namespace {

constexpr const char* kSource = R"(
  int x = 0, y = 0;
  lock L;
  cobegin {
    thread T0 {
      lock(L); x = x + 1; unlock(L);
      y = 2;
    }
    thread T1 {
      lock(L); x = x * y; unlock(L);
      print(x);
    }
  }
  print(y);
)";

TEST(DriverConcurrent, LazyAccessorsAreThreadSafe) {
  ir::Program prog = parser::parseOrDie(kSource);
  const driver::Compilation c = driver::analyze(prog);

  constexpr unsigned kThreads = 8;
  constexpr unsigned kRounds = 25;
  std::vector<std::size_t> heldSizes(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &heldSizes, t] {
      for (unsigned round = 0; round < kRounds; ++round) {
        // The lazy solve plus every accessor that reads the shared lazy
        // state, interleaved with the always-ready structures.
        heldSizes[t] = c.heldLocks().stats().iterations;
        (void)c.solverStats();
        (void)c.phaseTimes();
        (void)c.sites();
        (void)c.graph().size();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Exactly one solve happened: every thread saw the same iteration
  // count, and the phase table gained exactly the one lazy entry.
  for (unsigned t = 1; t < kThreads; ++t)
    EXPECT_EQ(heldSizes[t], heldSizes[0]);
  std::size_t lazyPhases = 0;
  for (const support::PhaseTime& p : c.phaseTimes())
    if (p.name == std::string("heldlocks")) ++lazyPhases;
  EXPECT_EQ(lazyPhases, 1u);
  EXPECT_EQ(c.solverStats().size(), 1u);
}

TEST(DriverConcurrent, PhaseTimesSnapshotIsStable) {
  ir::Program prog = parser::parseOrDie(kSource);
  const driver::Compilation c = driver::analyze(prog);

  // One thread repeatedly snapshots the phase table while another forces
  // the lazy solve that appends to it. The snapshot-by-value contract
  // means the reader's vector never changes under it.
  std::thread reader([&c] {
    for (int i = 0; i < 200; ++i) {
      const std::vector<support::PhaseTime> snap = c.phaseTimes();
      EXPECT_GE(snap.size(), 1u);
      for (const support::PhaseTime& p : snap) EXPECT_FALSE(p.name.empty());
    }
  });
  std::thread forcer([&c] { (void)c.heldLocks(); });
  reader.join();
  forcer.join();
  EXPECT_GE(c.phaseTimes().size(), 2u);
}

/// Every MHP answer over all node pairs plus the rendered csan output:
/// what one request thread observes of a shared Compilation.
std::string observe(const driver::Compilation& c) {
  std::string out;
  const std::size_t n = c.graph().size();
  out.reserve(n * n + 4096);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      out += c.mhp().mayHappenInParallel(
                 NodeId{static_cast<NodeId::value_type>(a)},
                 NodeId{static_cast<NodeId::value_type>(b)})
                 ? '1'
                 : '0';
  DiagEngine diag;
  const sanalysis::CsanReport report = sanalysis::runCsan(c, diag);
  out += "\nfindings " + std::to_string(report.totalFindings()) + "\n";
  for (const Diagnostic& d : diag.diagnostics()) {
    out += d.str() + "\n";
    for (const DiagNote& note : d.notes)
      out += "  " + note.loc.str() + " " + note.message + "\n";
  }
  return out;
}

TEST(DriverConcurrent, SharedCompilationQueriesMatchSerialPass) {
  // Barriers and set/wait events exercise every MHP refinement table.
  ir::Program prog = parser::parseOrDie(R"(
    int a = 0, b = 0, c = 0;
    lock L;
    event e;
    cobegin {
      thread T0 { a = 1; barrier; lock(L); b = b + 1; unlock(L); set(e); }
      thread T1 { c = a; barrier; wait(e); a = b; lock(L); c = c + 1; }
      thread T2 { b = 2; barrier; lock(L); a = a + c; unlock(L); }
    }
    print(a);
  )");
  const driver::Compilation c = driver::analyze(prog);
  const std::string serial = observe(c);
  ASSERT_NE(serial.find('1'), std::string::npos);  // some pair overlaps
  ASSERT_NE(serial.find("findings"), std::string::npos);

  constexpr unsigned kThreads = 8;
  std::vector<std::string> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&c, &seen, t] {
      for (int round = 0; round < 3; ++round) seen[t] = observe(c);
    });
  for (std::thread& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], serial);
}

}  // namespace
}  // namespace cssame
