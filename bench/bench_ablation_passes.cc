// Experiment Abl-1: optimizer effectiveness with vs without CSSAME.
// On lock-structured workloads, π rewriting strictly enables more
// constant folding and more dead code elimination; with CSSAME disabled
// the passes remain correct but weaker (the paper's central claim,
// generalized beyond the Figure 2 example).
#include "bench/bench_util.h"
#include "src/interp/interp.h"
#include "src/opt/optimize.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

struct Outcome {
  std::size_t usesFolded = 0;
  std::size_t deadRemoved = 0;
  std::size_t finalStmts = 0;
};

Outcome optimizeWith(bool cssame, std::uint64_t seed) {
  ir::Program prog = workload::makeLockStructured(4, 5, 4, 0.9, seed);
  opt::OptimizeReport r = opt::optimizeProgram(prog, {.cssame = cssame});
  Outcome out;
  out.usesFolded = r.constProp.usesReplaced;
  out.deadRemoved = r.deadCode.stmtsRemoved;
  out.finalStmts = prog.size();
  return out;
}

void BM_Ablation_OptimizeCssame(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ir::Program prog = workload::makeLockStructured(4, 5, 4, 0.9, 31);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        opt::optimizeProgram(prog, {.cssame = true}).iterations);
  }
}
BENCHMARK(BM_Ablation_OptimizeCssame);

void BM_Ablation_OptimizeCssaOnly(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ir::Program prog = workload::makeLockStructured(4, 5, 4, 0.9, 31);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        opt::optimizeProgram(prog, {.cssame = false}).iterations);
  }
}
BENCHMARK(BM_Ablation_OptimizeCssaOnly);

}  // namespace

int main(int argc, char** argv) {
  // Aggregate over several seeds so one workload shape doesn't dominate.
  Outcome withCssame, withoutCssame;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Outcome a = optimizeWith(true, seed);
    const Outcome b = optimizeWith(false, seed);
    withCssame.usesFolded += a.usesFolded;
    withCssame.deadRemoved += a.deadRemoved;
    withCssame.finalStmts += a.finalStmts;
    withoutCssame.usesFolded += b.usesFolded;
    withoutCssame.deadRemoved += b.deadRemoved;
    withoutCssame.finalStmts += b.finalStmts;
  }

  benchutil::Table table(
      "Abl-1: optimizer effectiveness, CSSAME vs plain CSSA (ours)");
  table.gate("uses folded, CSSAME (5 seeds)", ">= CSSA",
             withCssame.usesFolded,
             withCssame.usesFolded >= withoutCssame.usesFolded);
  table.note("uses folded, CSSA", "(baseline)", withoutCssame.usesFolded);
  table.gate("dead stmts removed, CSSAME", ">= CSSA", withCssame.deadRemoved,
             withCssame.deadRemoved >= withoutCssame.deadRemoved);
  table.note("dead stmts removed, CSSA", "(baseline)",
             withoutCssame.deadRemoved);
  table.gate("final program size, CSSAME", "<= CSSA", withCssame.finalStmts,
             withCssame.finalStmts <= withoutCssame.finalStmts);
  table.note("final program size, CSSA", "(baseline)",
             withoutCssame.finalStmts);
  return table.finish(argc, argv);
}
