// Experiment Fig. 4: constant propagation precision, CSSA vs CSSAME.
// Under plain CSSA no constants propagate inside T0's mutex body; under
// CSSAME the whole locked region folds (a1=5, b1=8, a2=13, a3=13, x0=13)
// and the branch b1 > 4 resolves.
#include "bench/bench_util.h"
#include "src/ir/printer.h"
#include "src/opt/cscc.h"
#include "src/parser/parser.h"
#include "src/workload/paper_programs.h"

namespace {

using namespace cssame;

opt::ConstPropStats measure(bool cssame) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  driver::Compilation c =
      driver::analyze(prog, {.enableCssame = cssame, .warnings = false});
  return opt::analyzeConstants(c);
}

bool xFoldsTo13(bool cssame) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  driver::Compilation c =
      driver::analyze(prog, {.enableCssame = cssame, .warnings = false});
  opt::propagateConstants(c);
  return ir::printProgram(prog).find("x = 13") != std::string::npos;
}

void BM_Fig4_CsccCssa(benchmark::State& state) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  for (auto _ : state) {
    driver::Compilation c =
        driver::analyze(prog, {.enableCssame = false, .warnings = false});
    benchmark::DoNotOptimize(opt::analyzeConstants(c).constantDefs);
  }
}
BENCHMARK(BM_Fig4_CsccCssa);

void BM_Fig4_CsccCssame(benchmark::State& state) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(opt::analyzeConstants(c).constantDefs);
  }
}
BENCHMARK(BM_Fig4_CsccCssame);

}  // namespace

int main(int argc, char** argv) {
  const opt::ConstPropStats cssa = measure(false);
  const opt::ConstPropStats cssame = measure(true);

  benchutil::Table table(
      "Figure 4: CSCC constant propagation, CSSA vs CSSAME");
  // Under CSSA only the top-level a=0/b=0 and the literal a=5 have
  // constant right-hand sides; nothing else in T0 folds.
  table.gate("constant assignments, CSSA (Fig. 4a)", "<= 3",
             cssa.constantDefs, cssa.constantDefs <= 3);
  table.gate("constant assignments, CSSAME (Fig. 4b)", ">= 6",
             cssame.constantDefs, cssame.constantDefs >= 6);
  table.gate("branches resolved, CSSA", "0", cssa.branchesResolved,
             cssa.branchesResolved == 0);
  const bool cssaFolds = xFoldsTo13(false);
  const bool cssameFolds = xFoldsTo13(true);
  table.gate("x folds to 13, CSSA", "no", cssaFolds ? "yes" : "no",
             !cssaFolds);
  table.gate("x folds to 13, CSSAME", "yes", cssameFolds ? "yes" : "no",
             cssameFolds);
  return table.finish(argc, argv);
}
