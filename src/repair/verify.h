// The repair verification contract.
//
// A candidate patch is *never* trusted on syntactic grounds. Each one is
// re-analyzed through exactly the pipeline `driver::runSource` runs —
// parseChecked → driver::analyze → runCsan + runTso — and, once the
// static rule passes, re-explored by the schedule explorer (DPOR on). It
// must pass every rule below before the engine may return it:
//
//   static   the target diagnostic's count strictly decreased, and no
//            diagnostic code's count increased (this is what keeps fixes
//            minimal: a too-wide or pointless lock scope fires the
//            Overwide/Redundant mutex-body lints, which count as new
//            diagnostics and reject the candidate);
//   dynamic  under SC the patched program has no deadlocking schedule,
//            no lock misuse, no new assertion/pointer failures, no new
//            dynamically raced variable, and its output set is a subset
//            of the original's (a repair may remove racy behaviors,
//            never invent ones) — for fence/atomic fixes, exactly equal
//            (they are SC no-ops);
//   TSO      for weak-memory targets the patched program is additionally
//            explored under TSO: no TSO-only raced variable and no
//            TSO-only output may remain — mutual exclusion is justified
//            again. A fence *deletion* must leave the TSO behavior
//            byte-identical to the original's.
//
// When an exploration budget trips, the candidate is *unverifiable* and
// rejected — the engine never returns a fix it could not prove out.
// Explorations run lazily, at most once per snapshot and memory model:
// a candidate is explored only after its static rule passes, and only
// when the base program's own exploration completed — otherwise it is
// unverifiable whatever its own exploration would find.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/repair/candidates.h"
#include "src/sanalysis/csan.h"
#include "src/sanalysis/tso.h"

namespace cssame::repair {

/// Resource budgets of one repair run. The exploration budgets are per
/// candidate per model; they default well below the explorer's own
/// defaults because repair explores up to
/// maxIterations × maxCandidatesPerTarget programs in one request.
struct RepairLimits {
  std::uint64_t exploreMaxSteps = 1u << 18;
  std::uint64_t exploreMaxStates = 1u << 16;
  std::size_t maxIterations = 16;
  std::size_t maxCandidatesPerTarget = 12;
};

/// One memory model's exploration of a snapshot (races recorded, DPOR
/// on), filled in by ensureExplored on first use.
struct Exploration {
  bool ran = false;  ///< ensureExplored has run for this model
  bool ok = false;   ///< the explorer returned without escaping
  /// The explorer's result; incomplete when it escaped.
  interp::ExploreResult result;
  /// result.racedVars as variable *names* — symbol ids are not
  /// comparable across two parses of different texts.
  std::set<std::string> raced;
};

/// One fully analyzed program state: the source text, its compilation,
/// the analyzer reports, per-code diagnostic counts, and the SC and TSO
/// explorations (each run on demand). The engine keeps one snapshot of
/// the current working program and builds one per candidate.
struct Snapshot {
  std::string source;
  bool ok = false;     ///< parsed and analyzed cleanly
  std::string error;   ///< why not, when !ok
  std::unique_ptr<ir::Program> program;
  std::unique_ptr<driver::Compilation> comp;
  sanalysis::CsanReport csan;
  sanalysis::TsoReport tso;
  /// Diagnostic counts by code: the pipeline's own warnings plus the
  /// csan and tso tool diagnostics — everything runSource would print.
  std::map<DiagCode, std::size_t> diagCounts;

  Exploration scExec, tsoExec;

  [[nodiscard]] std::size_t countOf(DiagCode code) const {
    auto it = diagCounts.find(code);
    return it == diagCounts.end() ? 0 : it->second;
  }
};

/// Parses and analyzes `source`; explores nothing. Analysis failures
/// (parse errors, invariant escapes on hostile inputs) yield ok == false
/// with the reason in `error` — never a throw.
[[nodiscard]] Snapshot analyzeForRepair(const std::string& source);

/// Runs the exploration of `snap` (which must be ok) under `model` if it
/// has not run yet, and returns it.
const Exploration& ensureExplored(Snapshot& snap, support::MemoryModel model,
                                  const RepairLimits& limits);

struct Verdict {
  bool ok = false;
  bool unverifiable = false;  ///< rejected because a budget tripped
  std::string reason;         ///< rejection reason, empty when ok
};

/// Applies the full contract to one candidate's snapshot. May run the
/// lazy explorations of either snapshot (hence non-const).
[[nodiscard]] Verdict verifyCandidate(Snapshot& base, Snapshot& patched,
                                      const RepairTarget& target,
                                      const RepairLimits& limits);

}  // namespace cssame::repair
