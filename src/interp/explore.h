// Exhaustive schedule exploration — a bounded model checker for the
// interleaving semantics.
//
// Enumerates every scheduler decision sequence of a program by forking
// the (copyable) Machine at each choice point, deduplicating identical
// dynamic states. The result is the *set of all possible outputs*, which
// gives the strongest possible validation of an optimization pass:
//
//     outputs(optimized) ⊆ outputs(original)
//
// must hold for any correct transformation of a racy program (an
// optimizer may reduce nondeterminism, never introduce new behaviors),
// and outputs must be preserved exactly for determinate programs.
//
// The search is one serial, layered breadth-first frontier sweep: layer
// d holds every candidate state reachable in exactly d steps, and each
// layer is processed in fixed in-order passes (classify / record /
// expand; docs/PERFORMANCE.md). States are deduplicated by 128-bit
// fingerprint (src/support/visited.h discusses the collision bound).
//
// State-space size is exponential in the interleaving depth; the
// explorer is intended for the small adversarial programs in the test
// suite (budgets default to ~2M machine steps).
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/ir/program.h"
#include "src/support/budget.h"
#include "src/support/memmodel.h"

namespace cssame::interp {

struct ExploreOptions {
  std::uint64_t maxSteps = 1u << 21;    ///< total step budget (all branches)
  std::uint64_t maxDepthPerRun = 4096;  ///< per-schedule step bound
  std::uint64_t maxStates = 1u << 22;   ///< deduplicated dynamic states
  /// Approximate cap on explorer memory (visited-state set + the machine
  /// copies in the current frontier). Exceeding it ends exploration
  /// gracefully with a BudgetExceeded outcome instead of an OOM kill.
  std::uint64_t maxMemoryBytes = 512u << 20;
  /// Record dynamic data races: at every explored state, two runnable
  /// threads whose pending statements access the same shared variable (at
  /// least one writing) while holding no common lock constitute a
  /// concrete racing schedule. csan's precision harness uses this to
  /// confirm or refute static PotentialDataRace findings.
  bool detectRaces = false;
  /// Record, for every variable symbol, the min/max value it ever held in
  /// any explored state. The value-range analysis (src/sanalysis/vrange)
  /// is dynamically cross-validated against these observations: a static
  /// interval that excludes an observed value is a soundness bug.
  bool recordValues = false;
  /// Dynamic partial-order reduction (src/interp/dpor.h): per-state
  /// persistent sets and inherited sleep sets prune interleavings that
  /// only permute independent actions. `outputs`, `racedVars` and the
  /// deadlock / lock-error / assert / pointer-error verdicts stay
  /// bit-identical to the unreduced sweep (every Mazurkiewicz trace
  /// keeps a representative); `observedRanges` may shrink to a subset of
  /// the unreduced ranges — still sound for the vrange oracle, which
  /// only consumes observations as lower bounds (docs/ANALYSIS.md).
  /// Off is the equality oracle: bit-identical to the pre-DPOR explorer.
  bool dpor = true;
  /// Memory model the machines simulate. SC (default) explores exactly
  /// the pre-TSO state space bit-identically; TSO adds store-buffer
  /// flush actions as scheduler choices, so the explored set includes
  /// every buffered interleaving (e.g. the store-buffering litmus
  /// outcome both loads read 0). The SC-vs-TSO difference in `racedVars`
  /// over a critical-section variable is the sanalysis::runTso oracle.
  support::MemoryModel model = support::MemoryModel::SC;
};

struct ExploreResult {
  /// Every distinct output sequence over all schedules.
  std::set<std::vector<long long>> outputs;
  bool complete = true;       ///< false if a budget was exhausted
  /// First budget that tripped (None when complete). Depth ends the
  /// search at the capped layer — in a breadth-first sweep every
  /// shallower state has already been processed by then; Steps, States
  /// and Memory halt the whole search where they trip.
  support::BudgetKind budgetExceeded = support::BudgetKind::None;
  bool anyDeadlock = false;   ///< some schedule deadlocks
  bool anyLockError = false;  ///< some schedule unlocks without holding
  std::uint64_t statesExplored = 0;
  /// With ExploreOptions::detectRaces: shared variables for which some
  /// reachable state had two conflicting accesses simultaneously enabled
  /// without a common lock — a dynamic witness for the race. Accesses
  /// are matched per memory *cell* (so `a[0]` vs `a[1]` never races) and
  /// attributed to the owning symbol (array cells report their array);
  /// pointer accesses race on whatever cell the address dynamically
  /// names.
  std::set<SymbolId> racedVars;
  /// With ExploreOptions::recordValues: per variable symbol, the smallest
  /// and largest value observed across every explored state (including
  /// the initial all-zeros state).
  std::map<SymbolId, std::pair<long long, long long>> observedRanges;
  /// Some schedule tripped an assert(e) with e == 0.
  bool anyAssertFailure = false;
  /// Some schedule performed a pointer operation on an out-of-range
  /// address (deref of null / wild address). The access itself is total
  /// (loads yield 0, stores are dropped) but the slip is surfaced.
  bool anyPtrError = false;

  /// Reduction counters (all zero when ExploreOptions::dpor is off).
  struct DporStats {
    /// Enabled actions not expanded (full fan-out minus actual fan-out,
    /// summed over every fresh state).
    std::uint64_t prunedSuccessors = 0;
    /// Persistent-set actions suppressed because they sat in the
    /// inherited sleep set.
    std::uint64_t sleepSetHits = 0;
    /// Pairwise dependence / future-conflict tests evaluated.
    std::uint64_t depQueries = 0;
    /// Revisited states whose stored sleep mask forced extra expansion
    /// (the state-caching repair rule).
    std::uint64_t partialReexpansions = 0;
  };
  DporStats dpor;
  /// Largest per-layer frontier footprint seen (bytes) — the explorer's
  /// peak transient memory next to the visited set.
  std::uint64_t peakFrontierBytes = 0;

  [[nodiscard]] bool anyRace() const { return !racedVars.empty(); }

  /// Convenience: the outputs as a sorted vector (stable for EXPECT_EQ).
  [[nodiscard]] std::vector<std::vector<long long>> outputList() const {
    return {outputs.begin(), outputs.end()};
  }
};

[[nodiscard]] ExploreResult exploreAllSchedules(const ir::Program& program,
                                                ExploreOptions opts = {});

}  // namespace cssame::interp
