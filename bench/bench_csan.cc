// Experiment San-1 (ours): precision of the csan static race engine,
// cross-validated against exhaustive schedule exploration.
//
// Static analysis over-approximates: MHP ignores branch feasibility and
// the lockset join ignores value flow, so PotentialDataRace findings can
// be spurious. The explorer (with dynamic race detection) gives ground
// truth on programs small enough to exhaust: a static raced variable is
//
//   confirmed  — the explorer reached a state with both conflicting
//                accesses simultaneously enabled and no common lock held;
//   refuted    — exploration COMPLETED without ever reaching such a
//                state (a genuine false positive);
//   unknown    — a budget tripped before the search finished.
//
// The dual direction is a soundness check: a dynamically raced variable
// the static engine missed would be a bug, and the run exits 1 if there
// is one, if fewer than 100 workloads ran, or if fewer than half of the
// explorations completed. Results go to BENCH_csan.json for trend
// tracking.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/sanalysis/csan.h"
#include "src/support/diag.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

struct Tally {
  std::size_t workloads = 0;
  std::size_t staticRacedVars = 0;
  std::size_t confirmed = 0;
  std::size_t refuted = 0;
  std::size_t unknown = 0;
  std::size_t dynamicOnly = 0;  ///< soundness violations (must stay 0)
  std::size_t completeExplorations = 0;
  std::size_t totalFindings = 0;

  [[nodiscard]] double confirmedFraction() const {
    const std::size_t decided = confirmed + refuted;
    return decided == 0 ? 1.0
                        : static_cast<double>(confirmed) /
                              static_cast<double>(decided);
  }
};

/// One workload end to end: csan's raced variables vs the explorer's.
void crossValidate(ir::Program prog, Tally& tally) {
  DiagEngine diag;
  driver::Compilation comp = driver::analyze(prog);
  const sanalysis::CsanReport report = sanalysis::runCsan(comp, diag);

  interp::ExploreOptions opts;
  opts.detectRaces = true;
  opts.maxSteps = 1u << 18;
  opts.maxStates = 1u << 16;
  const interp::ExploreResult dyn = interp::exploreAllSchedules(prog, opts);

  ++tally.workloads;
  tally.totalFindings += report.totalFindings();
  tally.completeExplorations += dyn.complete ? 1 : 0;
  tally.staticRacedVars += report.racedVars.size();
  for (SymbolId v : report.racedVars) {
    if (dyn.racedVars.contains(v))
      ++tally.confirmed;
    else if (dyn.complete)
      ++tally.refuted;
    else
      ++tally.unknown;
  }
  for (SymbolId v : dyn.racedVars)
    if (!report.racedVars.contains(v)) ++tally.dynamicOnly;
}

/// >= 100 generated workloads, kept small enough that most explorations
/// complete: racy random programs, determinate (race-free by
/// construction) random programs, and lock-structured sweeps with varying
/// locked fractions.
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
    cfg.determinate = true;  // every write locked, reads after coend
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
    std::fprintf(stderr, "bench_csan: cannot write %s\n", path);
    return;
  }
  out << "{\n"
      << "  \"experiment\": \"csan precision vs exhaustive exploration\",\n"
      << "  \"workloads\": " << t.workloads << ",\n"
      << "  \"complete_explorations\": " << t.completeExplorations << ",\n"
      << "  \"total_findings\": " << t.totalFindings << ",\n"
      << "  \"static_raced_vars\": " << t.staticRacedVars << ",\n"
      << "  \"confirmed\": " << t.confirmed << ",\n"
      << "  \"refuted\": " << t.refuted << ",\n"
      << "  \"unknown\": " << t.unknown << ",\n"
      << "  \"dynamic_only\": " << t.dynamicOnly << ",\n"
      << "  \"confirmed_fraction\": " << t.confirmedFraction() << "\n"
      << "}\n";
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
  using namespace cssame::benchutil;

  tableHeader("San-1: csan precision, static vs dynamic (ours)");
  const Tally t = runSweep();
  tableRow("generated workloads", ">= 100",
           static_cast<long long>(t.workloads), t.workloads >= 100);
  tableRow("complete explorations", "(most)",
           static_cast<long long>(t.completeExplorations),
           t.completeExplorations * 2 >= t.workloads);
  tableRow("static raced vars", "(reported)",
           static_cast<long long>(t.staticRacedVars), true);
  tableRow("  confirmed by a concrete schedule", "(most)",
           static_cast<long long>(t.confirmed), true);
  tableRow("  refuted (complete search, no race)", "(few)",
           static_cast<long long>(t.refuted), true);
  tableRow("  unknown (budget tripped)", "(few)",
           static_cast<long long>(t.unknown), true);
  tableRow("dynamic races missed statically", "0",
           static_cast<long long>(t.dynamicOnly), t.dynamicOnly == 0);
  std::printf("  confirmed fraction (of decided): %.3f\n",
              t.confirmedFraction());
  writeJson(t, "BENCH_csan.json");
  std::printf("  wrote BENCH_csan.json\n\n");
  if (t.dynamicOnly != 0 || t.workloads < 100 ||
      t.completeExplorations * 2 < t.workloads)
    return 1;
  return runBenchmarks(argc, argv);
}
