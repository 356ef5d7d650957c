// Experiment Alias-1 (ours): soundness and precision of the alias-class
// race engine (points-to + MayAliasRace), cross-validated against
// exhaustive schedule exploration.
//
// The explorer matches accesses per memory *cell* and attributes each
// race to the owning symbol (array cells report their array; a pointer
// access races on whatever cell the address dynamically names), so its
// racedVars set is ground truth at exactly the granularity the static
// alias classes abstract. A dynamic raced symbol is covered when its
// alias-class representative appears in csan's racedVars; the
// FALSE-NEGATIVE COUNT MUST BE ZERO — the process exits nonzero
// otherwise, so CI fails loudly on any soundness regression.
//
// Precision is the confirmed fraction of statically raced classes that
// some concrete schedule realizes, plus the points-to solver's own
// sharpness counters (wild-site fraction, mean finite target-set size).
// Results go to BENCH_alias.json for trend tracking.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
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
  std::size_t staticRacedClasses = 0;
  std::size_t confirmed = 0;
  std::size_t refuted = 0;
  std::size_t unknown = 0;
  std::size_t falseNegatives = 0;  ///< dynamic races missed (must stay 0)
  std::size_t completeExplorations = 0;
  std::size_t mayAliasFindings = 0;
  std::size_t derefSites = 0;
  std::size_t wildSites = 0;
  double targetSum = 0.0;  ///< sum of per-workload avg finite targets

  [[nodiscard]] double confirmedFraction() const {
    const std::size_t decided = confirmed + refuted;
    return decided == 0 ? 1.0
                        : static_cast<double>(confirmed) /
                              static_cast<double>(decided);
  }
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
  const ir::AliasClasses& aliases = comp.graph().aliases;

  interp::ExploreOptions opts;
  opts.detectRaces = true;
  opts.maxSteps = 1u << 18;
  opts.maxStates = 1u << 16;
  const interp::ExploreResult dyn = interp::exploreAllSchedules(prog, opts);

  ++tally.workloads;
  tally.completeExplorations += dyn.complete ? 1 : 0;
  tally.mayAliasFindings += report.mayAliasRaces;
  if (const sanalysis::PointsToResult* pt = comp.pointsTo()) {
    ++tally.pointerWorkloads;
    tally.derefSites += pt->stats.derefSites;
    tally.wildSites += pt->stats.anywhereSites;
    tally.targetSum += pt->stats.avgTargets;
  }

  // Dynamic races are per owning symbol; the static report keys class
  // representatives. Soundness: every dynamic race must land in a
  // statically raced class.
  std::set<SymbolId> dynClasses;
  for (SymbolId v : dyn.racedVars) dynClasses.insert(aliases.repOf(v));
  for (SymbolId cls : dynClasses)
    if (!report.racedVars.contains(cls)) ++tally.falseNegatives;

  tally.staticRacedClasses += report.racedVars.size();
  for (SymbolId cls : report.racedVars) {
    if (dynClasses.contains(cls))
      ++tally.confirmed;
    else if (dyn.complete)
      ++tally.refuted;
    else
      ++tally.unknown;
  }
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

void writeJson(const Tally& t, unsigned hw, const char* path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_alias: cannot write %s\n", path);
    return;
  }
  out << "{\n"
      << "  \"experiment\": \"alias-class race engine vs exhaustive "
         "exploration\",\n"
      << "  \"hardware_threads\": " << hw << ",\n"
      << "  \"workloads\": " << t.workloads << ",\n"
      << "  \"pointer_workloads\": " << t.pointerWorkloads << ",\n"
      << "  \"complete_explorations\": " << t.completeExplorations << ",\n"
      << "  \"static_raced_classes\": " << t.staticRacedClasses << ",\n"
      << "  \"confirmed\": " << t.confirmed << ",\n"
      << "  \"refuted\": " << t.refuted << ",\n"
      << "  \"unknown\": " << t.unknown << ",\n"
      << "  \"false_negatives\": " << t.falseNegatives << ",\n"
      << "  \"may_alias_findings\": " << t.mayAliasFindings << ",\n"
      << "  \"deref_sites\": " << t.derefSites << ",\n"
      << "  \"wild_site_fraction\": " << t.wildFraction() << ",\n"
      << "  \"confirmed_fraction\": " << t.confirmedFraction() << "\n"
      << "}\n";
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
  using namespace cssame::benchutil;

  tableHeader("Alias-1: alias-class races, static vs dynamic (ours)");
  const Tally t = runSweep();
  tableRow("workloads", ">= 100", static_cast<long long>(t.workloads),
           t.workloads >= 100);
  tableRow("complete explorations", "(most)",
           static_cast<long long>(t.completeExplorations),
           t.completeExplorations * 2 >= t.workloads);
  tableRow("static raced classes", "(reported)",
           static_cast<long long>(t.staticRacedClasses), true);
  tableRow("  confirmed by a concrete schedule", "(most)",
           static_cast<long long>(t.confirmed), true);
  tableRow("  refuted (complete search, no race)", "(few)",
           static_cast<long long>(t.refuted), true);
  tableRow("  unknown (budget tripped)", "(few)",
           static_cast<long long>(t.unknown), true);
  tableRow("dynamic races missed statically", "0",
           static_cast<long long>(t.falseNegatives), t.falseNegatives == 0);
  std::printf("  confirmed fraction (of decided): %.3f\n",
              t.confirmedFraction());
  std::printf("  wild deref-site fraction:        %.3f\n", t.wildFraction());
  writeJson(t, std::max(1u, std::thread::hardware_concurrency()),
            "BENCH_alias.json");
  std::printf("  wrote BENCH_alias.json\n\n");
  if (t.falseNegatives != 0) {
    std::fprintf(stderr,
                 "bench_alias: FATAL: %zu dynamic race(s) missed by the "
                 "static alias engine\n",
                 t.falseNegatives);
    return 1;
  }
  return runBenchmarks(argc, argv);
}
