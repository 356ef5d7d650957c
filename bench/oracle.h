// The static-vs-explorer oracle harness the soundness benches share: one
// exploration budget, one small-program corpus and one race scorer.
#pragma once

#include <set>
#include <vector>

#include "src/interp/explore.h"
#include "src/ir/alias.h"
#include "src/workload/generator.h"

namespace cssame::benchutil {

/// Explorer options with the oracle budget: the corpus programs below
/// almost always finish inside it, and a schedule-space blow-up trips it
/// instead of stalling the sweep.
inline interp::ExploreOptions oracleExplore() {
  interp::ExploreOptions opts;
  opts.maxSteps = 1u << 18;
  opts.maxStates = 1u << 16;
  return opts;
}

/// The 120 generated workloads bench_csan and bench_vrange cross-validate,
/// kept small enough that most explorations complete: racy random
/// programs, determinate (race-free by construction) random programs, and
/// lock-structured sweeps with varying locked fractions.
inline std::vector<ir::Program> oracleCorpus() {
  std::vector<ir::Program> corpus;
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
    corpus.push_back(workload::generateRandom(cfg));
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
    corpus.push_back(workload::generateRandom(cfg));
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const double lockedFraction = 0.25 * static_cast<double>(seed % 5);
    corpus.push_back(workload::makeLockStructured(
        2, 1, 2 + static_cast<int>(seed % 2), lockedFraction, seed));
  }
  return corpus;
}

/// Static race verdicts scored against exhaustive exploration. The
/// explorer races per owning symbol (an array cell reports its array, a
/// pointer access whatever cell it names) and the static report per
/// alias-class representative, so dynamic races are mapped through
/// `repOf` first. A statically raced class is
///
///   confirmed — some schedule reached both conflicting accesses enabled
///               at once with no common lock held;
///   refuted   — the exploration completed without reaching one (a
///               genuine false positive);
///   unknown   — a budget tripped before the search finished.
///
/// `missed` counts dynamically raced classes the static report lacks: a
/// soundness bug, so it must stay 0.
struct RaceScore {
  std::size_t staticRaced = 0;
  std::size_t confirmed = 0;
  std::size_t refuted = 0;
  std::size_t unknown = 0;
  std::size_t missed = 0;

  void add(const std::set<SymbolId>& staticRacedClasses,
           const interp::ExploreResult& dyn,
           const ir::AliasClasses& aliases) {
    std::set<SymbolId> dynClasses;
    for (SymbolId v : dyn.racedVars) dynClasses.insert(aliases.repOf(v));
    for (SymbolId cls : dynClasses)
      if (!staticRacedClasses.contains(cls)) ++missed;
    staticRaced += staticRacedClasses.size();
    for (SymbolId cls : staticRacedClasses) {
      if (dynClasses.contains(cls))
        ++confirmed;
      else if (dyn.complete)
        ++refuted;
      else
        ++unknown;
    }
  }

  /// Confirmed share of the decided (confirmed or refuted) classes.
  [[nodiscard]] double confirmedFraction() const {
    const std::size_t decided = confirmed + refuted;
    return decided == 0 ? 1.0
                        : static_cast<double>(confirmed) /
                              static_cast<double>(decided);
  }
};

}  // namespace cssame::benchutil
