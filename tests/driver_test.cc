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

// --dump-pfg's whole output: nodes, control edges, then Ecf, Emutex and
// Edsync, each in its emission order. The pipeline stores no Esync, so
// these pin the order in which the runner derives it.
std::string dumpPfg(const char* source) {
  RunOptions opts;
  opts.dumpPfg = true;
  const RunOutput r = runSource(source, "dump.cp", opts);
  EXPECT_EQ(r.code, 0) << r.err;
  return r.out;
}

TEST(Dot, RendersFigure2) {
  EXPECT_EQ(dumpPfg(workload::figure2Source()), R"dot(digraph PFG {
  node [shape=box, fontname="monospace"];
  n0 [label="#0 entry"];
  n1 [label="#1 exit"];
  n2 [label="#2\la = 0\lb = 0"];
  n3 [label="#3 cobegin", shape=trapezium];
  n4 [label="#4 coend", shape=trapezium];
  n5 [label="#5"];
  n6 [label="#6 lock(L)", style=filled, fillcolor=lightyellow];
  n7 [label="#7\la = 5\lb = (a + 3)\lbranch (b > 4)"];
  n8 [label="#8\la = (a + b)"];
  n9 [label="#9\lx = a"];
  n10 [label="#10 unlock(L)", style=filled, fillcolor=lightyellow];
  n11 [label="#11"];
  n12 [label="#12 lock(L)", style=filled, fillcolor=lightyellow];
  n13 [label="#13\la = (b + 6)\ly = a"];
  n14 [label="#14 unlock(L)", style=filled, fillcolor=lightyellow];
  n15 [label="#15\lprint(x)\lprint(y)"];
  n0 -> n2;
  n2 -> n3;
  n3 -> n5;
  n3 -> n11;
  n4 -> n15;
  n5 -> n6;
  n6 -> n7;
  n7 -> n8;
  n7 -> n9;
  n8 -> n9;
  n9 -> n10;
  n10 -> n4;
  n11 -> n12;
  n12 -> n13;
  n13 -> n14;
  n14 -> n4;
  n15 -> n1;
  n7 -> n13 [style=dashed, color=red, label="DU:a"];
  n7 -> n13 [style=dashed, color=red, label="DD:a"];
  n7 -> n13 [style=dashed, color=red, label="DU:b"];
  n8 -> n13 [style=dashed, color=red, label="DU:a"];
  n8 -> n13 [style=dashed, color=red, label="DD:a"];
  n13 -> n7 [style=dashed, color=red, label="DU:a"];
  n13 -> n7 [style=dashed, color=red, label="DD:a"];
  n13 -> n8 [style=dashed, color=red, label="DU:a"];
  n13 -> n8 [style=dashed, color=red, label="DD:a"];
  n13 -> n9 [style=dashed, color=red, label="DU:a"];
  n6 -> n14 [style=dotted, dir=none, color=blue];
  n12 -> n10 [style=dotted, dir=none, color=blue];
}
)dot");
}

// Two locks whose lock nodes interleave, a set/wait pair and a barrier.
// The event orders the first L bodies and the barrier separates each
// thread's L body before it from the other's after it, so only the
// unordered L and M pairs get an Emutex edge.
TEST(Dot, RendersLocksEventsAndBarrier) {
  const char* source = R"(int buf0, buf1, produced, consumed, n;
lock L, M;
event ready;

cobegin {
  thread producer {
    lock(L);
    buf0 = 11;
    buf1 = 22;
    produced = 2;
    unlock(L);
    set(ready);
    barrier;
    lock(L);
    produced = 3;
    unlock(L);
    lock(M);
    n = n + 1;
    unlock(M);
  }
  thread consumer {
    int sum;
    wait(ready);
    lock(L);
    sum = buf0 + buf1;
    consumed = produced;
    unlock(L);
    barrier;
    lock(L);
    consumed = consumed + produced;
    unlock(L);
    lock(M);
    n = n + sum;
    unlock(M);
    print(sum);
  }
}
print(produced);
print(consumed);
print(n);
)";
  EXPECT_EQ(dumpPfg(source), R"dot(digraph PFG {
  node [shape=box, fontname="monospace"];
  n0 [label="#0 entry"];
  n1 [label="#1 exit"];
  n2 [label="#2"];
  n3 [label="#3 cobegin", shape=trapezium];
  n4 [label="#4 coend", shape=trapezium];
  n5 [label="#5"];
  n6 [label="#6 lock(L)", style=filled, fillcolor=lightyellow];
  n7 [label="#7\lbuf0 = 11\lbuf1 = 22\lproduced = 2"];
  n8 [label="#8 unlock(L)", style=filled, fillcolor=lightyellow];
  n9 [label="#9 set(ready)"];
  n10 [label="#10 barrier"];
  n11 [label="#11 lock(L)", style=filled, fillcolor=lightyellow];
  n12 [label="#12\lproduced = 3"];
  n13 [label="#13 unlock(L)", style=filled, fillcolor=lightyellow];
  n14 [label="#14 lock(M)", style=filled, fillcolor=lightyellow];
  n15 [label="#15\ln = (n + 1)"];
  n16 [label="#16 unlock(M)", style=filled, fillcolor=lightyellow];
  n17 [label="#17"];
  n18 [label="#18 wait(ready)"];
  n19 [label="#19 lock(L)", style=filled, fillcolor=lightyellow];
  n20 [label="#20\lsum = (buf0 + buf1)\lconsumed = produced"];
  n21 [label="#21 unlock(L)", style=filled, fillcolor=lightyellow];
  n22 [label="#22 barrier"];
  n23 [label="#23 lock(L)", style=filled, fillcolor=lightyellow];
  n24 [label="#24\lconsumed = (consumed + produced)"];
  n25 [label="#25 unlock(L)", style=filled, fillcolor=lightyellow];
  n26 [label="#26 lock(M)", style=filled, fillcolor=lightyellow];
  n27 [label="#27\ln = (n + sum)"];
  n28 [label="#28 unlock(M)", style=filled, fillcolor=lightyellow];
  n29 [label="#29\lprint(sum)"];
  n30 [label="#30\lprint(produced)\lprint(consumed)\lprint(n)"];
  n0 -> n2;
  n2 -> n3;
  n3 -> n5;
  n3 -> n17;
  n4 -> n30;
  n5 -> n6;
  n6 -> n7;
  n7 -> n8;
  n8 -> n9;
  n9 -> n10;
  n10 -> n11;
  n11 -> n12;
  n12 -> n13;
  n13 -> n14;
  n14 -> n15;
  n15 -> n16;
  n16 -> n4;
  n17 -> n18;
  n18 -> n19;
  n19 -> n20;
  n20 -> n21;
  n21 -> n22;
  n22 -> n23;
  n23 -> n24;
  n24 -> n25;
  n25 -> n26;
  n26 -> n27;
  n27 -> n28;
  n28 -> n29;
  n29 -> n4;
  n30 -> n1;
  n7 -> n20 [style=dashed, color=red, label="DU:buf0"];
  n7 -> n20 [style=dashed, color=red, label="DU:buf1"];
  n7 -> n20 [style=dashed, color=red, label="DU:produced"];
  n7 -> n24 [style=dashed, color=red, label="DU:produced"];
  n12 -> n20 [style=dashed, color=red, label="DU:produced"];
  n12 -> n24 [style=dashed, color=red, label="DU:produced"];
  n15 -> n27 [style=dashed, color=red, label="DU:n"];
  n15 -> n27 [style=dashed, color=red, label="DD:n"];
  n27 -> n15 [style=dashed, color=red, label="DU:n"];
  n27 -> n15 [style=dashed, color=red, label="DD:n"];
  n11 -> n25 [style=dotted, dir=none, color=blue];
  n14 -> n28 [style=dotted, dir=none, color=blue];
  n23 -> n13 [style=dotted, dir=none, color=blue];
  n26 -> n16 [style=dotted, dir=none, color=blue];
  n9 -> n18 [style=bold, color=darkgreen];
}
)dot");
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
