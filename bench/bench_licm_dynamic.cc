// Experiment Dyn-1: dynamic effect of LICM on lock hold time, measured by
// the interleaving interpreter on bank-teller workloads. Expected shape:
// total work (steps) roughly constant, lock-held steps strictly lower,
// account balances identical.
#include "bench/bench_util.h"
#include "src/interp/interp.h"
#include "src/opt/optimize.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

struct DynResult {
  std::uint64_t holdBefore = 0, holdAfter = 0;
  std::uint64_t stepsBefore = 0, stepsAfter = 0;
  long long sumBefore = 0, sumAfter = 0;
};

DynResult measure(int tellers, int ops, std::uint64_t seeds) {
  DynResult r;
  ir::Program prog = workload::makeBank(3, tellers, ops, 42);
  for (const interp::RunResult& run : interp::runManySeeds(prog, seeds)) {
    r.holdBefore += run.totalHoldSteps();
    r.stepsBefore += run.steps;
    for (long long v : run.output) r.sumBefore += v;
  }
  opt::optimizeProgram(prog);
  for (const interp::RunResult& run : interp::runManySeeds(prog, seeds)) {
    r.holdAfter += run.totalHoldSteps();
    r.stepsAfter += run.steps;
    for (long long v : run.output) r.sumAfter += v;
  }
  return r;
}

void BM_LicmDynamic_Interp(benchmark::State& state) {
  const int tellers = static_cast<int>(state.range(0));
  ir::Program prog = workload::makeBank(3, tellers, 6, 42);
  opt::optimizeProgram(prog);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    interp::RunResult r = interp::run(prog, {.seed = seed++});
    benchmark::DoNotOptimize(r.steps);
  }
}
BENCHMARK(BM_LicmDynamic_Interp)->Arg(2)->Arg(4)->Arg(8);

void BM_LicmDynamic_OptimizeBank(benchmark::State& state) {
  const int tellers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ir::Program prog = workload::makeBank(3, tellers, 6, 42);
    state.ResumeTiming();
    benchmark::DoNotOptimize(opt::optimizeProgram(prog).iterations);
  }
}
BENCHMARK(BM_LicmDynamic_OptimizeBank)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  const DynResult r = measure(/*tellers=*/4, /*ops=*/6, /*seeds=*/10);

  benchutil::Table table("Dyn-1: LICM dynamic lock-hold reduction (ours)");
  table.note("lock-held steps before (10 seeds)", "(dynamic)", r.holdBefore);
  table.gate("lock-held steps after", "< before", r.holdAfter,
             r.holdAfter < r.holdBefore);
  const double shrink =
      r.holdBefore == 0 ? 0.0
                        : 100.0 * (1.0 - static_cast<double>(r.holdAfter) /
                                             static_cast<double>(r.holdBefore));
  table.gate("critical-section shrinkage", "> 0%",
             benchutil::fmt("%.1f%%", shrink), shrink > 0.0);
  table.gate("outputs preserved (balance sums equal)", "yes",
             r.sumBefore == r.sumAfter ? "yes" : "no",
             r.sumBefore == r.sumAfter);
  return table.finish(argc, argv);
}
