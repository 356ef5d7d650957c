// Concurrency regression for one driver::Compilation shared between
// threads.
//
// cssamed with several workers answers MHP queries, runs csan — its
// lock-lifecycle walks included — and renders --dump-pfg, deriving the
// sync edges, on one Compilation from many threads at once. A
// Compilation's const accessors cache nothing, so all of that must be
// plain reads. Run under ThreadSanitizer (the `tsan` CI job) this test
// is the regression proof; under the plain build it still checks that
// every thread observes the serial answers.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/pfg/dot.h"
#include "src/sanalysis/csan.h"

namespace cssame {
namespace {

/// Every MHP answer over all node pairs plus the rendered csan output and
/// PFG: what one request thread observes of a shared Compilation.
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
  const analysis::SyncEdges sync = analysis::syncEdges(c.graph(), c.mhp());
  return out + pfg::toDot(c.graph(), sync.mutex, sync.dsync);
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
