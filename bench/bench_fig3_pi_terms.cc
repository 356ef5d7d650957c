// Experiment Fig. 2/3: CSSA vs CSSAME form of the running example.
// The paper's Figure 3 shows five π terms under plain CSSA
// (ta1, ta11, ta12, tb0, ta4) and a single surviving π under CSSAME
// (tb0 = π(b0, b1)); both φ terms (a3, a5) survive.
#include "bench/bench_util.h"
#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/workload/paper_programs.h"

namespace {

using namespace cssame;

struct FormCounts {
  std::size_t pis = 0;
  std::size_t piArgs = 0;
  std::size_t phis = 0;
};

FormCounts countForm(bool cssame) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  driver::Compilation c =
      driver::analyze(prog, {.enableCssame = cssame, .warnings = false});
  FormCounts out;
  out.pis = c.ssa().countLivePis();
  out.piArgs = c.ssa().countPiConflictArgs();
  out.phis = c.ssa().countLivePhis();
  return out;
}

void BM_Fig3_BuildCssa(benchmark::State& state) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  for (auto _ : state) {
    driver::Compilation c =
        driver::analyze(prog, {.enableCssame = false, .warnings = false});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
}
BENCHMARK(BM_Fig3_BuildCssa);

void BM_Fig3_BuildCssame(benchmark::State& state) {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
}
BENCHMARK(BM_Fig3_BuildCssame);

}  // namespace

int main(int argc, char** argv) {
  const FormCounts cssa = countForm(false);
  const FormCounts cssame = countForm(true);

  benchutil::Table table("Figure 3: CSSA vs CSSAME form of Figure 2");
  table.gate("pi terms, CSSA (Fig. 3a)", "5", cssa.pis, cssa.pis == 5);
  table.gate("pi terms, CSSAME (Fig. 3b)", "1", cssame.pis, cssame.pis == 1);
  table.gate("pi conflict args, CSSA", "6", cssa.piArgs, cssa.piArgs == 6);
  table.gate("pi conflict args, CSSAME", "1", cssame.piArgs,
             cssame.piArgs == 1);
  table.gate("phi terms, CSSA", "2 (a3, a5)", cssa.phis, cssa.phis == 2);
  table.gate("phi terms, CSSAME", "2 (a3, a5)", cssame.phis,
             cssame.phis == 2);
  return table.finish(argc, argv);
}
