// Experiment Scal-1: compile-time cost of the analysis pipeline
// (PFG + dominators + MHP + mutex structures + SSA + CSSA + CSSAME) as
// program size, thread count and lock count grow. The paper reports no
// compile times; a production library must characterize its own cost.
// Expected shape: near-linear in statement count for fixed thread count;
// the conflict-edge/π work grows with (threads × shared accesses). The
// lock-region series is the adversarial shape for mutex structures.
#include "bench/bench_util.h"
#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

void BM_Pipeline_ByStmts(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.threads = 4;
  cfg.stmtsPerThread = static_cast<int>(state.range(0));
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
  state.counters["stmts"] = static_cast<double>(prog.size());
  state.counters["stmts/s"] = benchmark::Counter(
      static_cast<double>(prog.size()), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Pipeline_ByStmts)->Arg(10)->Arg(40)->Arg(160)->Arg(640);

void BM_Pipeline_ByThreads(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.stmtsPerThread = 40;
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
  state.counters["stmts"] = static_cast<double>(prog.size());
  state.counters["pis"] = static_cast<double>([&] {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    return c.ssa().countLivePis();
  }());
}
BENCHMARK(BM_Pipeline_ByThreads)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_Pipeline_ByLocks(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 13;
  cfg.threads = 6;
  cfg.stmtsPerThread = 40;
  cfg.locks = static_cast<int>(state.range(0));
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.mutexes().bodies().size());
  }
}
BENCHMARK(BM_Pipeline_ByLocks)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Pipeline_ByLockRegions(benchmark::State& state) {
  // The dense lock-region shape, 3 threads x k regions: conflict edges
  // grow 4x per doubling of k, mutex bodies 2x. A phase that enumerated
  // every (lock, unlock) candidate pair would grow 8x.
  const std::string src =
      workload::lockRegionSource(3, static_cast<int>(state.range(0)));
  ir::Program prog = parser::parseOrDie(src);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = true});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
  driver::Compilation c = driver::analyze(prog, {.warnings = true});
  state.counters["pfg_nodes"] = static_cast<double>(c.graph().size());
  state.counters["conflict_edges"] =
      static_cast<double>(c.graph().conflicts.size());
  state.counters["mutex_bodies"] =
      static_cast<double>(c.mutexes().bodies().size());
}
BENCHMARK(BM_Pipeline_ByLockRegions)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Arg(160)
    ->Unit(benchmark::kMillisecond);

void BM_Pipeline_PhaseBreakdown(benchmark::State& state) {
  // Times one full pipeline on a mid-size program; compare against the
  // ByStmts series to see which phase dominates (the π rewrite is
  // proportional to π arguments, not statements).
  workload::GeneratorConfig cfg;
  cfg.seed = 17;
  cfg.threads = 8;
  cfg.stmtsPerThread = 80;
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.rewriteStats().argsRemoved);
  }
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  state.counters["pfg_nodes"] = static_cast<double>(c.graph().size());
  state.counters["conflict_edges"] =
      static_cast<double>(c.graph().conflicts.size());
  state.counters["pi_args_removed"] =
      static_cast<double>(c.rewriteStats().argsRemoved);
}
BENCHMARK(BM_Pipeline_PhaseBreakdown);

}  // namespace

int main(int argc, char** argv) {
  benchutil::Table table("Scal-1: pipeline compile-time scaling (ours)");
  // Sanity anchor: the pipeline on a ~2600-statement program must finish
  // (table checks feasibility; the timing series below shows the shape).
  workload::GeneratorConfig cfg;
  cfg.seed = 3;
  cfg.threads = 16;
  cfg.stmtsPerThread = 160;
  ir::Program prog = workload::generateRandom(cfg);
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  table.gate("statements analyzed", "(scales)", prog.size(),
             prog.size() > 1000);
  table.gate("pi terms placed", "> 0", c.piStats().pisPlaced,
             c.piStats().pisPlaced > 0);
  table.gate("pi args removed by CSSAME", "> 0", c.rewriteStats().argsRemoved,
             c.rewriteStats().argsRemoved > 0);
  return table.finish(argc, argv);
}
