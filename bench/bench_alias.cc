// Experiment Alias-1 (ours): soundness and precision of the alias-class
// race engine (points-to + MayAliasRace), cross-validated against
// exhaustive schedule exploration.
//
// The explorer matches accesses per memory *cell* and attributes each
// race to the owning symbol (array cells report their array; a pointer
// access races on whatever cell the address dynamically names), so its
// racedVars set is ground truth at exactly the granularity the static
// alias classes abstract. A dynamic raced symbol is covered when its
// alias-class representative appears in csan's racedVars (the scorer in
// bench/oracle.h); the FALSE-NEGATIVE COUNT MUST BE ZERO — the process
// exits nonzero otherwise, so CI fails loudly on any soundness
// regression.
//
// Precision is the confirmed fraction of statically raced classes that
// some concrete schedule realizes, plus the points-to solver's own
// sharpness counter, the wild deref-site fraction.
// Results go to BENCH_alias.json for trend tracking.
#include "bench/bench_util.h"
#include "bench/oracle.h"
#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"
#include "src/sanalysis/pointsto.h"
#include "src/support/diag.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

struct Tally {
  std::size_t workloads = 0;
  std::size_t pointerWorkloads = 0;  ///< with at least one deref site
  std::size_t completeExplorations = 0;
  std::size_t mayAliasFindings = 0;
  std::size_t derefSites = 0;
  std::size_t wildSites = 0;
  benchutil::RaceScore races;

  [[nodiscard]] double wildFraction() const {
    return derefSites == 0 ? 0.0
                           : static_cast<double>(wildSites) /
                                 static_cast<double>(derefSites);
  }
};

/// One workload end to end: csan's raced alias classes vs the explorer's
/// per-cell dynamic races, matched through the refined class partition.
void crossValidate(ir::Program prog, Tally& tally) {
  DiagEngine diag;
  driver::Compilation comp = driver::analyze(prog);
  const sanalysis::CsanReport report = sanalysis::runCsan(comp, diag);

  interp::ExploreOptions opts = benchutil::oracleExplore();
  opts.detectRaces = true;
  const interp::ExploreResult dyn = interp::exploreAllSchedules(prog, opts);

  ++tally.workloads;
  tally.completeExplorations += dyn.complete ? 1 : 0;
  tally.mayAliasFindings += report.mayAliasRaces;
  if (const sanalysis::PointsToResult* pt = comp.pointsTo()) {
    ++tally.pointerWorkloads;
    tally.derefSites += pt->stats.derefSites;
    tally.wildSites += pt->stats.anywhereSites;
  }
  tally.races.add(report.racedVars, dyn, comp.graph().aliases);
}

/// Hand-written pointer/array litmus programs: the alias gallery shapes
/// (racy and race-free variants) at explorer-friendly sizes.
const char* const kLitmus[] = {
    // Unlocked writes through two pointers to the same cell.
    R"(
      int x, p, q;
      p = &x; q = &x;
      cobegin {
        thread A { *p = 1; }
        thread B { *q = 2; }
      }
      print(x);
    )",
    // The same shape fully lock protected: race-free.
    R"(
      int x, p, q; lock m;
      p = &x; q = &x;
      cobegin {
        thread A { lock(m); *p = 1; unlock(m); }
        thread B { lock(m); *q = 2; unlock(m); }
      }
      print(x);
    )",
    // Aliased array indices: i and j both evaluate to 0 at runtime.
    R"(
      int a[4]; int i, j;
      i = 0; j = i;
      cobegin {
        thread A { a[i] = 1; }
        thread B { a[j] = 2; }
      }
      print(a[0]);
    )",
    // Pointer read racing a direct write to the pointee.
    R"(
      int x, y, p;
      p = &x;
      cobegin {
        thread A { x = 5; }
        thread B { y = *p; }
      }
      print(y);
    )",
    // Disjoint pointees, both locked: nothing to report.
    R"(
      int x, y, p, q; lock m;
      p = &x; q = &y;
      cobegin {
        thread A { lock(m); *p = 1; unlock(m); }
        thread B { lock(m); *q = 2; unlock(m); }
      }
      print(x); print(y);
    )",
};

Tally runSweep() {
  Tally tally;
  for (const char* src : kLitmus)
    crossValidate(parser::parseOrDie(src), tally);
  // Racy pointer workloads (unlocked shared updates + pointer traffic).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2;
    cfg.sharedVars = 3;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3 + static_cast<int>(seed % 2);
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;  // loops explode the schedule space
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 3);
    cfg.determinate = false;
    cfg.ptrProb = 0.4;
    crossValidate(workload::generateRandom(cfg), tally);
  }
  // Racy array workloads.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 2000 + seed;
    cfg.threads = 2;
    cfg.sharedVars = 2;
    cfg.locks = 1;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 3);
    cfg.determinate = false;
    cfg.arrayProb = 0.5;
    crossValidate(workload::generateRandom(cfg), tally);
  }
  // Determinate pointer programs: race-free by construction, so every
  // static finding here is a false positive charged to `refuted`.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 4000 + seed;
    cfg.threads = 2;
    cfg.sharedVars = 2;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.determinate = true;
    cfg.ptrProb = 0.3;
    cfg.arrayProb = 0.2;
    crossValidate(workload::generateRandom(cfg), tally);
  }
  return tally;
}

// Timing: the final points-to solve alone over growing pointer workloads.
void BM_PointsTo(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 42;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.sharedVars = 6;
  cfg.stmtsPerThread = 20;
  cfg.determinate = false;
  cfg.ptrProb = 0.3;
  cfg.arrayProb = 0.2;
  ir::Program prog = workload::generateRandom(cfg);
  driver::Compilation comp = driver::analyze(prog);
  for (auto _ : state) {
    sanalysis::PointsToResult r =
        sanalysis::solvePointsTo(comp.graph(), comp.ssa());
    benchmark::DoNotOptimize(r.stats.outerPasses);
  }
}
BENCHMARK(BM_PointsTo)->Arg(2)->Arg(4)->Arg(8);

// Timing: the whole pointer pipeline — driver::analyze, whose refinement
// loop runs the conservative round and every solve → refine → rebuild
// round — on the same workloads.
void BM_PointerAnalyze(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 42;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.sharedVars = 6;
  cfg.stmtsPerThread = 20;
  cfg.determinate = false;
  cfg.ptrProb = 0.3;
  cfg.arrayProb = 0.2;
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation comp = driver::analyze(prog);
    benchmark::DoNotOptimize(comp.pointsTo());
  }
}
BENCHMARK(BM_PointerAnalyze)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  benchutil::Table table(
      "Alias-1: alias-class races, static vs dynamic (ours)");
  const Tally t = runSweep();
  const benchutil::RaceScore& r = t.races;
  table.gate("workloads", ">= 100", t.workloads, t.workloads >= 100,
             "workloads");
  table.json().set("pointer_workloads", t.pointerWorkloads);
  table.gate("complete explorations", "(most)", t.completeExplorations,
             t.completeExplorations * 2 >= t.workloads,
             "complete_explorations");
  table.note("static raced classes", "(reported)", r.staticRaced,
             "static_raced_classes");
  table.note("  confirmed by a concrete schedule", "(most)", r.confirmed,
             "confirmed");
  table.note("  refuted (complete search, no race)", "(few)", r.refuted,
             "refuted");
  table.note("  unknown (budget tripped)", "(few)", r.unknown, "unknown");
  table.gate("dynamic races missed statically", "0", r.missed, r.missed == 0,
             "false_negatives");
  table.json()
      .set("may_alias_findings", t.mayAliasFindings)
      .set("deref_sites", t.derefSites)
      .set("wild_site_fraction", t.wildFraction())
      .set("confirmed_fraction", r.confirmedFraction());
  std::printf("  confirmed fraction (of decided): %.3f\n",
              r.confirmedFraction());
  std::printf("  wild deref-site fraction:        %.3f\n", t.wildFraction());
  benchutil::writeBenchJson(
      "BENCH_alias.json", "alias-class race engine vs exhaustive exploration",
      table.json());
  return table.finish(argc, argv);
}
