// Experiment Vr-1 (ours): soundness and precision of the concurrent
// value-range analysis (CVRA), cross-validated two ways.
//
//   1. Differentially against CSCC: the interval lattice is built to stay
//      in lockstep with the constant lattice (Const(v) ⟺ [v,v], ⊤ ⟺ ⊤,
//      executability bit for bit) — crossCheckConstants() verifies this
//      on every workload.
//   2. Dynamically against exhaustive schedule exploration: the explorer
//      records, per variable, the min/max value observed in ANY reachable
//      state of ANY interleaving. Every observation must lie inside the
//      static per-variable hull; an excluded value is a soundness bug.
//      Observations are valid witnesses even when a budget trips (they
//      came from real executions), so the check applies unconditionally.
//
// Results go to BENCH_vrange.json for trend tracking; CI fails the run
// when either check reports a violation or no dead branch is found.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/sanalysis/vrange.h"
#include "src/support/diag.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

struct Tally {
  std::size_t workloads = 0;
  std::size_t completeExplorations = 0;
  std::size_t crossCheckFailures = 0;   ///< CVRA/CSCC lockstep broken
  std::size_t soundnessViolations = 0;  ///< observed value outside hull
  std::size_t valuesChecked = 0;        ///< per-variable observations
  std::size_t singletonDefs = 0;
  std::size_t boundedDefs = 0;
  std::size_t deadBranches = 0;
  std::size_t assertsDecided = 0;
  std::string firstFailure;  ///< description of the first violation
};

/// One workload end to end: solve CVRA, check CSCC lockstep, explore all
/// schedules with value recording, and check every observation against
/// the static hull.
void crossValidate(ir::Program prog, Tally& tally) {
  driver::Compilation comp = driver::analyze(prog);
  const sanalysis::VrangeResult vr = sanalysis::analyzeValueRanges(comp);

  ++tally.workloads;
  tally.singletonDefs += vr.stats.singletonDefs;
  tally.boundedDefs += vr.stats.boundedDefs;
  tally.deadBranches += vr.stats.deadBranches;
  tally.assertsDecided += vr.stats.assertsProved + vr.stats.assertsMayFail;

  const std::string mismatch = sanalysis::crossCheckConstants(comp, vr);
  if (!mismatch.empty()) {
    ++tally.crossCheckFailures;
    if (tally.firstFailure.empty())
      tally.firstFailure = "cross-check: " + mismatch;
  }

  interp::ExploreOptions opts;
  opts.recordValues = true;
  opts.maxSteps = 1u << 18;
  opts.maxStates = 1u << 16;
  const interp::ExploreResult dyn = interp::exploreAllSchedules(prog, opts);
  tally.completeExplorations += dyn.complete ? 1 : 0;
  for (const auto& [var, range] : dyn.observedRanges) {
    ++tally.valuesChecked;
    const sanalysis::Interval& hull = vr.varRanges[var.index()];
    if (!hull.contains(range.first) || !hull.contains(range.second)) {
      ++tally.soundnessViolations;
      if (tally.firstFailure.empty())
        tally.firstFailure = "soundness: '" + prog.symbols.nameOf(var) +
                             "' observed [" + std::to_string(range.first) +
                             "," + std::to_string(range.second) +
                             "] outside static " + hull.str();
    }
  }
}

/// >= 100 generated workloads mirroring the csan sweep: racy random
/// programs, determinate random programs, and lock-structured sweeps —
/// all small enough that most explorations complete.
Tally runSweep() {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2 + static_cast<int>(seed % 2);
    cfg.sharedVars = 3;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3 + static_cast<int>(seed % 3);
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;  // loops explode the schedule space
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 4);
    cfg.determinate = false;
    crossValidate(workload::generateRandom(cfg), tally);
  }
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 1000 + seed;
    cfg.threads = 2;
    cfg.sharedVars = 2;
    cfg.locks = 1;
    cfg.stmtsPerThread = 4;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.determinate = true;
    crossValidate(workload::generateRandom(cfg), tally);
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const double lockedFraction = 0.25 * static_cast<double>(seed % 5);
    crossValidate(
        workload::makeLockStructured(2, 1, 2 + static_cast<int>(seed % 2),
                                     lockedFraction, seed),
        tally);
  }
  return tally;
}

void writeJson(const Tally& t, const char* path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_vrange: cannot write %s\n", path);
    return;
  }
  out << "{\n"
      << "  \"experiment\": \"CVRA soundness vs exhaustive exploration\",\n"
      << "  \"workloads\": " << t.workloads << ",\n"
      << "  \"complete_explorations\": " << t.completeExplorations << ",\n"
      << "  \"values_checked\": " << t.valuesChecked << ",\n"
      << "  \"cross_check_failures\": " << t.crossCheckFailures << ",\n"
      << "  \"soundness_violations\": " << t.soundnessViolations << ",\n"
      << "  \"singleton_defs\": " << t.singletonDefs << ",\n"
      << "  \"bounded_defs\": " << t.boundedDefs << ",\n"
      << "  \"dead_branches\": " << t.deadBranches << ",\n"
      << "  \"asserts_decided\": " << t.assertsDecided << "\n"
      << "}\n";
}

// Timing: CVRA cost alone (analysis pipeline prebuilt) as the program
// grows. The sparse engine visits each definition a bounded number of
// times, so this should scale like CSCC.
void BM_Vrange(benchmark::State& state) {
  ir::Program prog = workload::makeLockStructured(
      static_cast<int>(state.range(0)), 4, 8, 0.7, 42);
  driver::Compilation comp = driver::analyze(prog);
  for (auto _ : state) {
    sanalysis::VrangeResult r = sanalysis::analyzeValueRanges(comp);
    benchmark::DoNotOptimize(r.stats.singletonDefs);
  }
}
BENCHMARK(BM_Vrange)->Arg(2)->Arg(4)->Arg(8);

void BM_VrangeEndToEnd(benchmark::State& state) {
  ir::Program prog = workload::makeLockStructured(
      static_cast<int>(state.range(0)), 4, 8, 0.7, 42);
  for (auto _ : state) {
    driver::Compilation comp = driver::analyze(prog);
    sanalysis::VrangeResult r = sanalysis::analyzeValueRanges(comp);
    benchmark::DoNotOptimize(r.stats.singletonDefs);
  }
}
BENCHMARK(BM_VrangeEndToEnd)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  using namespace cssame::benchutil;

  tableHeader("Vr-1: CVRA soundness, static vs dynamic (ours)");
  const Tally t = runSweep();
  tableRow("generated workloads", ">= 100",
           static_cast<long long>(t.workloads), t.workloads >= 100);
  tableRow("complete explorations", "(most)",
           static_cast<long long>(t.completeExplorations),
           t.completeExplorations * 2 >= t.workloads);
  tableRow("per-variable observations checked", "(many)",
           static_cast<long long>(t.valuesChecked), t.valuesChecked > 0);
  tableRow("CSCC cross-check failures", "0",
           static_cast<long long>(t.crossCheckFailures),
           t.crossCheckFailures == 0);
  tableRow("dynamic soundness violations", "0",
           static_cast<long long>(t.soundnessViolations),
           t.soundnessViolations == 0);
  tableRow("singleton defs", "(reported)",
           static_cast<long long>(t.singletonDefs), true);
  tableRow("bounded (finite, non-singleton) defs", "(reported)",
           static_cast<long long>(t.boundedDefs), true);
  // An oracle that decides nothing shows nothing, so the dead-branch
  // verdicts need a floor. Asserts get none: the generator emits no
  // assert statement, so asserts_decided reads 0 by construction.
  tableRow("dead branches", ">= 1", static_cast<long long>(t.deadBranches),
           t.deadBranches > 0);
  if (!t.firstFailure.empty())
    std::printf("  first failure: %s\n", t.firstFailure.c_str());
  writeJson(t, "BENCH_vrange.json");
  std::printf("  wrote BENCH_vrange.json\n\n");
  if (t.crossCheckFailures != 0 || t.soundnessViolations != 0 ||
      t.deadBranches == 0)
    return 1;
  return runBenchmarks(argc, argv);
}
