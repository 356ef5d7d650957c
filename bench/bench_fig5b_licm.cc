// Experiment Fig. 5b: lock independent code motion on the paper's
// Figure 5a program. Both x = 13 (T0) and y = a (T1) sink to the
// post-mutex nodes; the interpreter quantifies the critical-section
// shrinkage the motion buys.
#include "bench/bench_util.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/opt/licm.h"
#include "src/parser/parser.h"
#include "src/workload/paper_programs.h"

namespace {

using namespace cssame;

struct Result {
  opt::LicmStats stats;
  std::uint64_t holdBefore = 0;
  std::uint64_t holdAfter = 0;
  bool outputsPreserved = true;
};

Result measure() {
  Result r;
  ir::Program prog = parser::parseOrDie(workload::figure5aSource());
  for (const interp::RunResult& run : interp::runManySeeds(prog, 10))
    r.holdBefore += run.totalHoldSteps();

  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  r.stats = opt::moveLockIndependentCode(c);

  for (const interp::RunResult& run : interp::runManySeeds(prog, 10)) {
    r.holdAfter += run.totalHoldSteps();
    r.outputsPreserved &= run.completed && run.output.size() == 2 &&
                          run.output[0] == 13 &&
                          (run.output[1] == 6 || run.output[1] == 14);
  }
  return r;
}

void BM_Fig5b_Licm(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ir::Program prog = parser::parseOrDie(workload::figure5aSource());
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    state.ResumeTiming();
    benchmark::DoNotOptimize(opt::moveLockIndependentCode(c).sunk);
  }
}
BENCHMARK(BM_Fig5b_Licm);

}  // namespace

int main(int argc, char** argv) {
  const Result r = measure();

  benchutil::Table table("Figure 5b: lock independent code motion");
  table.gate("statements sunk to post-mutex", "2 (x=13, y=a)", r.stats.sunk,
             r.stats.sunk == 2);
  table.gate("statements hoisted", "0", r.stats.hoisted,
             r.stats.hoisted == 0);
  table.note("lock-held steps before (10 seeds)", "(dynamic)", r.holdBefore);
  table.gate("lock-held steps after (10 seeds)", "< before", r.holdAfter,
             r.holdAfter < r.holdBefore);
  table.gate("program outputs preserved", "yes",
             r.outputsPreserved ? "yes" : "no", r.outputsPreserved);
  return table.finish(argc, argv);
}
