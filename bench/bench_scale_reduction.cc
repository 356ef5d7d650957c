// Experiment Scal-2: π-argument reduction rate vs the fraction of shared
// accesses inside mutex bodies. Expected shape: the more accesses are
// locked (and region variables killed on entry), the larger the fraction
// of π arguments CSSAME removes; with nothing locked, CSSA == CSSAME.
#include "bench/bench_util.h"
#include "src/driver/pipeline.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

struct Reduction {
  std::size_t cssaArgs = 0;
  std::size_t cssameArgs = 0;
  [[nodiscard]] double percent() const {
    return cssaArgs == 0
               ? 0.0
               : 100.0 * static_cast<double>(cssaArgs - cssameArgs) /
                     static_cast<double>(cssaArgs);
  }
};

Reduction measure(double lockedFraction, std::uint64_t seed) {
  Reduction r;
  {
    ir::Program prog =
        workload::makeLockStructured(4, 6, 5, lockedFraction, seed);
    driver::Compilation c =
        driver::analyze(prog, {.enableCssame = false, .warnings = false});
    r.cssaArgs = c.ssa().countPiConflictArgs();
  }
  {
    ir::Program prog =
        workload::makeLockStructured(4, 6, 5, lockedFraction, seed);
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    r.cssameArgs = c.ssa().countPiConflictArgs();
  }
  return r;
}

void BM_Reduction_Sweep(benchmark::State& state) {
  const double frac = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    ir::Program prog = workload::makeLockStructured(4, 6, 5, frac, 23);
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.ssa().countPiConflictArgs());
  }
  Reduction r = measure(frac, 23);
  state.counters["cssa_args"] = static_cast<double>(r.cssaArgs);
  state.counters["cssame_args"] = static_cast<double>(r.cssameArgs);
  state.counters["reduction_pct"] = r.percent();
}
BENCHMARK(BM_Reduction_Sweep)->Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(100);

}  // namespace

int main(int argc, char** argv) {
  benchutil::Table table(
      "Scal-2: pi-argument reduction vs locked fraction (ours)");
  double prev = -1.0;
  bool monotonicByEnds = true;
  for (int pct : {0, 50, 100}) {
    const Reduction r = measure(pct / 100.0, 23);
    table.note(benchutil::fmt("reduction %% at lockedFraction=%d%%", pct),
               pct == 0 ? "small" : "grows",
               benchutil::fmt("%.1f%% (%zu -> %zu)", r.percent(), r.cssaArgs,
                              r.cssameArgs));
    if (pct == 0 || pct == 100) {
      if (r.percent() < prev) monotonicByEnds = false;
      prev = r.percent();
    }
  }
  table.gate("more locking => more reduction", "yes",
             monotonicByEnds ? "yes" : "no", monotonicByEnds);
  return table.finish(argc, argv);
}
