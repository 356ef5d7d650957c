// Experiment Abl-2 (ours): critical-section composition and the combined
// effect of statement LICM + expression hoisting on the bank workload —
// what fraction of locked statements the analysis proves lock
// independent, and how far the passes actually shrink the sections.
#include "bench/bench_util.h"
#include "src/driver/pipeline.h"
#include "src/interp/interp.h"
#include "src/opt/lockstats.h"
#include "src/opt/optimize.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

struct Composition {
  std::size_t interior = 0;
  std::size_t independent = 0;
  std::size_t afterInterior = 0;
  std::uint64_t holdBefore = 0;
  std::uint64_t holdAfter = 0;
};

Composition measure() {
  Composition out;
  ir::Program prog = workload::makeBank(3, 4, 5, 11);
  {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    opt::CriticalSectionReport report = opt::analyzeCriticalSections(c);
    out.interior = report.totalInterior;
    out.independent = report.totalIndependent;
  }
  for (const interp::RunResult& r : interp::runManySeeds(prog, 8))
    out.holdBefore += r.totalHoldSteps();

  opt::optimizeProgram(prog);

  {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    opt::CriticalSectionReport after = opt::analyzeCriticalSections(c);
    out.afterInterior = after.totalInterior;
  }
  for (const interp::RunResult& r : interp::runManySeeds(prog, 8))
    out.holdAfter += r.totalHoldSteps();
  return out;
}

void BM_LockComposition_Report(benchmark::State& state) {
  ir::Program prog = workload::makeBank(3, 4, 5, 11);
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::analyzeCriticalSections(c).totalIndependent);
  }
}
BENCHMARK(BM_LockComposition_Report);

void BM_LockComposition_ExprHoist(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ir::Program prog = workload::makeBank(3, 4, 5, 11);
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        opt::hoistLockIndependentExpressions(c).exprsHoisted);
  }
}
BENCHMARK(BM_LockComposition_ExprHoist);

}  // namespace

int main(int argc, char** argv) {
  const Composition c = measure();

  benchutil::Table table(
      "Abl-2: critical-section composition, bank workload (ours)");
  table.gate("locked statements before", "(workload)", c.interior,
             c.interior > 0);
  table.gate("proven lock independent", "> 0", c.independent,
             c.independent > 0);
  table.gate("locked statements after LICM+hoist", "< before",
             c.afterInterior, c.afterInterior < c.interior);
  table.note("lock-held steps before (8 seeds)", "(dynamic)", c.holdBefore);
  table.gate("lock-held steps after", "< before", c.holdAfter,
             c.holdAfter < c.holdBefore);
  return table.finish(argc, argv);
}
