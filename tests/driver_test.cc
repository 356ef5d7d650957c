// Tests for the pipeline facade, the CSSA form printer and the
// critical-section report plumbing.
#include <gtest/gtest.h>

#include <string>

#include "src/cssa/form_printer.h"
#include "src/driver/pipeline.h"
#include "src/driver/runner.h"
#include "src/ir/printer.h"
#include "src/opt/cscc.h"
#include "src/opt/lockstats.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/pfg/dot.h"
#include "src/sanalysis/csan.h"
#include "src/sanalysis/tso.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::driver {
namespace {

TEST(Pipeline, AllComponentsPopulated) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  Compilation c = analyze(prog);
  EXPECT_EQ(&c.program(), &prog);
  EXPECT_GT(c.graph().size(), 5u);
  EXPECT_TRUE(c.dom().reachable(c.graph().exit));
  EXPECT_TRUE(c.pdom().reachable(c.graph().entry));
  EXPECT_EQ(c.mutexes().bodies().size(), 2u);
  EXPECT_GT(c.ssa().defs.size(), 0u);
  EXPECT_EQ(c.piStats().pisPlaced, 5u);
  EXPECT_EQ(c.rewriteStats().pisRemoved, 4u);
}

TEST(Pipeline, CssameToggle) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  Compilation off = analyze(prog, {.enableCssame = false});
  EXPECT_EQ(off.rewriteStats().argsRemoved, 0u);
  EXPECT_EQ(off.ssa().countLivePis(), 5u);
}

TEST(Pipeline, WarningsToggle) {
  const char* unmatched = "int a; lock L; lock(L); a = 1;";
  ir::Program p1 = parser::parseOrDie(unmatched);
  Compilation withWarnings = analyze(p1, {.warnings = true});
  EXPECT_GT(withWarnings.diag().diagnostics().size(), 0u);

  ir::Program p2 = parser::parseOrDie(unmatched);
  Compilation noWarnings = analyze(p2, {.warnings = false});
  EXPECT_EQ(noWarnings.diag().diagnostics().size(), 0u);
}

TEST(FormPrinter, ShowsPhiAndPiTerms) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  Compilation c = analyze(prog);
  const std::string form = cssa::printForm(c.graph(), c.ssa());
  // Figure 3b's surviving terms.
  EXPECT_NE(form.find("= pi(b"), std::string::npos) << form;
  EXPECT_NE(form.find("= phi(a"), std::string::npos) << form;
  // SSA-renamed statement with a constant.
  EXPECT_NE(form.find("= 5"), std::string::npos);
  // The branch condition appears.
  EXPECT_NE(form.find("branch "), std::string::npos);
}

TEST(FormPrinter, CssaShowsAllPis) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  Compilation c = analyze(prog, {.enableCssame = false});
  const std::string form = cssa::printForm(c.graph(), c.ssa());
  std::size_t count = 0, pos = 0;
  while ((pos = form.find("= pi(", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 5u);
}

TEST(Dot, RendersFigure2) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  Compilation c = analyze(prog);
  const std::string dot = pfg::toDot(c.graph());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("lock"), std::string::npos);
  // Both sync edge styles appear (mutex dotted, conflicts dashed).
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(LockStats, Figure2Report) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  Compilation c = analyze(prog);
  opt::CriticalSectionReport report = opt::analyzeCriticalSections(c);
  ASSERT_EQ(report.bodies.size(), 2u);
  // T0: a=5, b=a+3, branch, a=a+b, x=a → 5; T1: a=b+6, y=a → 2.
  EXPECT_EQ(report.totalInterior, 7u);
  // Before optimization NOTHING is lock independent: even x = a reads
  // the concurrently-written a. This is exactly why the paper runs
  // constant propagation first (x = 13 is "lock independent code
  // produced by other optimizations", Section 5.3).
  EXPECT_EQ(report.totalIndependent, 0u);

  opt::propagateConstants(c);
  Compilation after = analyze(prog, {.warnings = false});
  opt::CriticalSectionReport report2 = opt::analyzeCriticalSections(after);
  EXPECT_GT(report2.totalIndependent, 0u);  // x = 13 qualifies now
}

TEST(Pipeline, ReanalysisIsStable) {
  // Analyzing twice must give identical statistics (no hidden state).
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  Compilation c1 = analyze(prog);
  Compilation c2 = analyze(prog);
  EXPECT_EQ(c1.ssa().countLivePis(), c2.ssa().countLivePis());
  EXPECT_EQ(c1.ssa().countLivePhis(), c2.ssa().countLivePhis());
  EXPECT_EQ(c1.graph().conflicts.size(), c2.graph().conflicts.size());
  EXPECT_EQ(c1.mutexes().bodies().size(), c2.mutexes().bodies().size());
}

TEST(Pipeline, PhaseTimesCoverEveryPass) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  Compilation c = analyze(prog);
  const auto& times = c.phaseTimes();
  ASSERT_GE(times.size(), 9u);
  EXPECT_EQ(times.front().name, "pfg");
  for (const auto& t : times) EXPECT_GE(t.seconds, 0.0) << t.name;
  // The checks run no analysis phase of their own: the table is complete
  // once the compilation is.
  const std::vector<support::PhaseTime> before = times;
  DiagEngine diag;
  (void)sanalysis::runCsan(c, diag);
  (void)sanalysis::runTso(c, diag);
  ASSERT_EQ(c.phaseTimes().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(c.phaseTimes()[i].name, before[i].name);
    EXPECT_EQ(c.phaseTimes()[i].seconds, before[i].seconds);
  }
}

TEST(Runner, DiagnosticLongerThan4KBIsNotTruncated) {
  // Each thread writes x under two of the locks L, M and N, so every
  // pair of writes shares a lock (no race) but no lock is common to all:
  // one inconsistent-locking warning with one note per write, 7.9 KB at
  // 64 regions per thread.
  std::string src = "int x;\nlock L;\nlock M;\nlock N;\ncobegin {\n";
  for (const char* locks : {"LM", "MN", "LN"}) {
    const std::string a(1, locks[0]);
    const std::string b(1, locks[1]);
    src += "  thread {\n";
    for (int k = 0; k < 64; ++k)
      src += "    lock(" + a + "); lock(" + b + "); x = x + 1; unlock(" + b +
             "); unlock(" + a + ");\n";
    src += "  }\n";
  }
  src += "}\nprint(x);\n";
  RunOptions opts;
  opts.doCsan = true;
  const RunOutput r = runSource(src, "regions.cp", opts);

  ir::Program prog = parser::parseOrDie(src);
  Compilation c = analyze(prog);
  DiagEngine diag;
  (void)sanalysis::runCsan(c, diag);
  bool sawLong = false;
  for (const Diagnostic& d : diag.diagnostics()) {
    const std::string line = d.str() + "\n";
    sawLong |= line.size() > 4096;
    EXPECT_NE(r.err.find(line), std::string::npos) << d.str().size();
  }
  EXPECT_TRUE(sawLong);
}

TEST(Runner, OptPrintoutLongerThan4KBIsNotTruncated) {
  const std::string src = workload::lockRegionSource(3, 64);
  RunOptions opts;
  opts.doOpt = true;
  const RunOutput r = runSource(src, "regions.cp", opts);

  ir::Program prog = parser::parseOrDie(src);
  (void)opt::optimizeProgram(prog, {});
  const std::string expect = ir::printProgram(prog);
  EXPECT_GT(expect.size(), 4096u);
  EXPECT_EQ(r.out, expect);
}

}  // namespace
}  // namespace cssame::driver
