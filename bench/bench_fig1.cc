// Experiment Fig. 1: mutual exclusion reduces cross-thread reaching
// definitions. The paper's claim: in Figure 1 the definition of `a` in T0
// cannot reach the second use of `a` in T1 (`g(a)` always executes with
// a == 3). We measure the reaching-definition sets of that use under
// plain CSSA and under CSSAME, then time both pipelines.
#include "bench/bench_util.h"
#include "src/cssa/reaching.h"
#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/workload/paper_programs.h"

namespace {

using namespace cssame;

/// The VarRef of `a` inside the call to g() in Figure 1.
const ir::Expr* findGUse(const ir::Program& prog) {
  const ir::Expr* found = nullptr;
  ir::forEachStmt(prog.body, [&](const ir::Stmt& s) {
    if (!s.expr) return;
    ir::forEachExpr(*s.expr, [&](const ir::Expr& e) {
      if (e.kind == ir::ExprKind::Call &&
          prog.symbols.nameOf(e.callee) == "g")
        found = e.operands[0].get();
    });
  });
  return found;
}

std::size_t reachingDefsOfGUse(bool cssame) {
  ir::Program prog = parser::parseOrDie(workload::figure1Source());
  driver::Compilation c =
      driver::analyze(prog, {.enableCssame = cssame, .warnings = false});
  return cssa::reachingDefs(c.ssa(), findGUse(prog)).size();
}

void BM_Fig1_AnalyzeCssa(benchmark::State& state) {
  ir::Program prog = parser::parseOrDie(workload::figure1Source());
  for (auto _ : state) {
    driver::Compilation c =
        driver::analyze(prog, {.enableCssame = false, .warnings = false});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
}
BENCHMARK(BM_Fig1_AnalyzeCssa);

void BM_Fig1_AnalyzeCssame(benchmark::State& state) {
  ir::Program prog = parser::parseOrDie(workload::figure1Source());
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
}
BENCHMARK(BM_Fig1_AnalyzeCssame);

}  // namespace

int main(int argc, char** argv) {
  const std::size_t cssaDefs = reachingDefsOfGUse(false);
  const std::size_t cssameDefs = reachingDefsOfGUse(true);
  benchutil::Table table(
      "Figure 1: lock-induced kill of cross-thread defs");
  table.gate("reaching defs of `a` in g(a), CSSA", "2 (a=3, a=a+b)",
             cssaDefs, cssaDefs == 2);
  table.gate("reaching defs of `a` in g(a), CSSAME", "1 (a=3 only)",
             cssameDefs, cssameDefs == 1);
  return table.finish(argc, argv);
}
