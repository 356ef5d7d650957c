// Experiment Vr-1 (ours): soundness and precision of the concurrent
// value-range analysis (CVRA), cross-validated two ways.
//
//   1. Differentially against the three-point constant lattice: the
//      interval lattice is built to stay in lockstep with it (Const(v) ⟺
//      [v,v], ⊤ ⟺ ⊤, executability bit for bit), which is why CSCC folds
//      CVRA's singletons — crossCheckConstants() verifies this against a
//      reference solve on every workload.
//   2. Dynamically against exhaustive schedule exploration: the explorer
//      records, per variable, the min/max value observed in ANY reachable
//      state of ANY interleaving. Every observation must lie inside the
//      static per-variable hull; an excluded value is a soundness bug.
//      Observations are valid witnesses even when a budget trips (they
//      came from real executions), so the check applies unconditionally.
//
// Results go to BENCH_vrange.json for trend tracking; the run fails
// when either check reports a violation, when no dead branch is found,
// or when the table's coverage floors miss.
#include <string>

#include "bench/bench_util.h"
#include "bench/oracle.h"
#include "src/driver/pipeline.h"
#include "src/sanalysis/vrange.h"

namespace {

using namespace cssame;

struct Tally {
  std::size_t workloads = 0;
  std::size_t completeExplorations = 0;
  std::size_t crossCheckFailures = 0;   ///< three-point lockstep broken
  std::size_t soundnessViolations = 0;  ///< observed value outside hull
  std::size_t valuesChecked = 0;        ///< per-variable observations
  std::size_t singletonDefs = 0;
  std::size_t boundedDefs = 0;
  std::size_t deadBranches = 0;
  std::size_t assertsDecided = 0;
  std::string firstFailure;  ///< description of the first violation
};

/// One workload end to end: solve CVRA, check the lockstep, explore all
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

  interp::ExploreOptions opts = benchutil::oracleExplore();
  opts.recordValues = true;
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
  benchutil::Table table("Vr-1: CVRA soundness, static vs dynamic (ours)");
  Tally t;
  for (ir::Program& prog : benchutil::oracleCorpus())
    crossValidate(std::move(prog), t);
  table.gate("generated workloads", ">= 100", t.workloads, t.workloads >= 100,
             "workloads");
  table.gate("complete explorations", "(most)", t.completeExplorations,
             t.completeExplorations * 2 >= t.workloads,
             "complete_explorations");
  table.gate("per-variable observations checked", "(many)", t.valuesChecked,
             t.valuesChecked > 0, "values_checked");
  table.gate("CSCC cross-check failures", "0", t.crossCheckFailures,
             t.crossCheckFailures == 0, "cross_check_failures");
  table.gate("dynamic soundness violations", "0", t.soundnessViolations,
             t.soundnessViolations == 0, "soundness_violations");
  table.note("singleton defs", "(reported)", t.singletonDefs,
             "singleton_defs");
  table.note("bounded (finite, non-singleton) defs", "(reported)",
             t.boundedDefs, "bounded_defs");
  // An oracle that decides nothing shows nothing, so the dead-branch
  // verdicts need a floor. Asserts get none: the generator emits no
  // assert statement, so asserts_decided reads 0 by construction.
  table.gate("dead branches", ">= 1", t.deadBranches, t.deadBranches > 0,
             "dead_branches");
  table.json().set("asserts_decided", t.assertsDecided);
  if (!t.firstFailure.empty())
    std::printf("  first failure: %s\n", t.firstFailure.c_str());
  benchutil::writeBenchJson("BENCH_vrange.json",
                            "CVRA soundness vs exhaustive exploration",
                            table.json());
  return table.finish(argc, argv);
}
