// Experiment San-1 (ours): precision of the csan static race engine,
// cross-validated against exhaustive schedule exploration.
//
// Static analysis over-approximates: MHP ignores branch feasibility and
// the lockset join ignores value flow, so PotentialDataRace findings can
// be spurious. The explorer (with dynamic race detection) gives ground
// truth on programs small enough to exhaust; bench/oracle.h scores each
// static raced variable as confirmed, refuted or unknown.
//
// The dual direction is a soundness check: a dynamically raced variable
// the static engine missed would be a bug, and the run exits 1 if there
// is one, if fewer than 100 workloads ran, or if fewer than half of the
// explorations completed. Results go to BENCH_csan.json for trend
// tracking.
#include "bench/bench_util.h"
#include "bench/oracle.h"
#include "src/driver/pipeline.h"
#include "src/sanalysis/csan.h"
#include "src/support/diag.h"

namespace {

using namespace cssame;

struct Tally {
  std::size_t workloads = 0;
  std::size_t completeExplorations = 0;
  std::size_t totalFindings = 0;
  benchutil::RaceScore races;
};

/// One workload end to end: csan's raced variables vs the explorer's.
void crossValidate(ir::Program prog, Tally& tally) {
  DiagEngine diag;
  driver::Compilation comp = driver::analyze(prog);
  const sanalysis::CsanReport report = sanalysis::runCsan(comp, diag);

  interp::ExploreOptions opts = benchutil::oracleExplore();
  opts.detectRaces = true;
  const interp::ExploreResult dyn = interp::exploreAllSchedules(prog, opts);

  ++tally.workloads;
  tally.totalFindings += report.totalFindings();
  tally.completeExplorations += dyn.complete ? 1 : 0;
  tally.races.add(report.racedVars, dyn, comp.graph().aliases);
}

// Timing: csan cost alone (analysis pipeline prebuilt) as the program
// grows — the analyzer is meant to run on every compile, so it must stay
// linear-ish in program size.
void BM_Csan(benchmark::State& state) {
  ir::Program prog = workload::makeLockStructured(
      static_cast<int>(state.range(0)), 4, 8, 0.7, 42);
  driver::Compilation comp = driver::analyze(prog);
  for (auto _ : state) {
    DiagEngine diag;
    sanalysis::CsanReport r = sanalysis::runCsan(comp, diag);
    benchmark::DoNotOptimize(r.potentialRaces);
  }
}
BENCHMARK(BM_Csan)->Arg(2)->Arg(4)->Arg(8);

void BM_CsanEndToEnd(benchmark::State& state) {
  ir::Program prog = workload::makeLockStructured(
      static_cast<int>(state.range(0)), 4, 8, 0.7, 42);
  for (auto _ : state) {
    DiagEngine diag;
    driver::Compilation comp = driver::analyze(prog);
    sanalysis::CsanReport r = sanalysis::runCsan(comp, diag);
    benchmark::DoNotOptimize(r.potentialRaces);
  }
}
BENCHMARK(BM_CsanEndToEnd)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  benchutil::Table table("San-1: csan precision, static vs dynamic (ours)");
  Tally t;
  for (ir::Program& prog : benchutil::oracleCorpus())
    crossValidate(std::move(prog), t);
  const benchutil::RaceScore& r = t.races;
  table.gate("generated workloads", ">= 100", t.workloads, t.workloads >= 100,
             "workloads");
  table.gate("complete explorations", "(most)", t.completeExplorations,
             t.completeExplorations * 2 >= t.workloads,
             "complete_explorations");
  table.json().set("total_findings", t.totalFindings);
  table.note("static raced vars", "(reported)", r.staticRaced,
             "static_raced_vars");
  table.note("  confirmed by a concrete schedule", "(most)", r.confirmed,
             "confirmed");
  table.note("  refuted (complete search, no race)", "(few)", r.refuted,
             "refuted");
  table.note("  unknown (budget tripped)", "(few)", r.unknown, "unknown");
  table.gate("dynamic races missed statically", "0", r.missed, r.missed == 0,
             "dynamic_only");
  table.json().set("confirmed_fraction", r.confirmedFraction());
  std::printf("  confirmed fraction (of decided): %.3f\n",
              r.confirmedFraction());
  benchutil::writeBenchJson("BENCH_csan.json",
                            "csan precision vs exhaustive exploration",
                            table.json());
  return table.finish(argc, argv);
}
