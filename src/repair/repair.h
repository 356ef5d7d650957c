// The synchronization repair engine — synthesize-and-verify.
//
// repairSource() runs the full loop: analyze the program, collect repair
// targets (src/repair/candidates.h), and for each target try its
// candidate lattice in order, re-analyzing and re-exploring every patch
// through the verification contract (src/repair/verify.h). The first
// verified candidate is committed — the patched text becomes the new
// working program and targets are re-collected, so one fix that
// incidentally resolves several witnesses is never followed by stale
// duplicate patches. Targets whose candidates all fail are remembered by
// a line-number-free signature and skipped in later iterations, which
// ends the loop after at most maxIterations target attempts.
//
// The result is structured: the final patched source, an LCS line diff
// against the input, per-target applied/unfixed records, counters, and a
// status — Clean (nothing to fix), Fixed (every target repaired),
// Partial (some repaired, some not), NoSafeFix (targets found, none
// repairable), or Error (the input does not analyze). Partial, NoSafeFix
// and Error map to exit code 1 in the driver; the "no safe fix" envelope
// is a first-class answer, not a failure to respond.
#pragma once

#include <string>
#include <vector>

#include "src/repair/candidates.h"
#include "src/repair/patch.h"
#include "src/repair/verify.h"

namespace cssame::repair {

/// Counters of one repair run — surfaced by `cssamec --fix --stats` and
/// aggregated into the service's stats JSON as the `repair.*` family.
struct RepairStats {
  std::size_t targets = 0;             ///< distinct targets attempted
  std::size_t candidatesTried = 0;
  std::size_t candidatesVerified = 0;  ///< accepted (== fixes applied)
  std::size_t candidatesRejected = 0;  ///< failed the contract
  std::size_t unverifiable = 0;        ///< of rejected: budget tripped
  std::size_t freshLockFallbacks = 0;  ///< fixes that declared a new lock
  std::size_t iterations = 0;          ///< engine loop iterations
};

struct AppliedFix {
  std::string target;     ///< RepairTarget::describe()
  std::string candidate;  ///< Candidate::description
  std::size_t candidateIndex = 0;  ///< 1-based rank of the winner
  std::size_t candidateCount = 0;  ///< lattice size for this target
};

struct UnfixedTarget {
  std::string target;
  std::string reason;  ///< why the lattice was exhausted
  std::size_t candidatesTried = 0;
};

enum class RepairStatus : std::uint8_t {
  Clean,      ///< no repairable findings for the requested target
  Fixed,      ///< every target repaired and verified
  Partial,    ///< some targets repaired, some have no safe fix
  NoSafeFix,  ///< targets found but none could be safely repaired
  Error,      ///< the input program does not parse/analyze
};

[[nodiscard]] const char* repairStatusName(RepairStatus s);

struct RepairResult {
  RepairStatus status = RepairStatus::Clean;
  std::string error;  ///< Error status: what failed
  std::vector<AppliedFix> applied;    ///< in application order
  std::vector<UnfixedTarget> unfixed; ///< in encounter order
  std::string patchedSource;          ///< == input when nothing applied
  std::vector<DiffLine> diff;         ///< input → patchedSource
  RepairStats stats;
  /// Final-program explorer facts (SC, DPOR on), for the report footer.
  bool finalRaceFree = false;
  bool finalDeadlockFree = false;
  bool finalExploreComplete = false;
  /// Set when the run attempted weak-memory targets: the final program
  /// was additionally explored under TSO. Per-candidate verification only
  /// demands monotone progress (a symmetric protocol needs one fence per
  /// thread), so this is where full restoration is measured: justified
  /// means the TSO behavior set collapsed back to SC's with no TSO-only
  /// race left.
  bool finalTsoChecked = false;
  bool finalTsoJustified = false;
};

/// Runs the repair loop on `source`. Deterministic: equal inputs yield
/// byte-equal results. Never throws.
[[nodiscard]] RepairResult repairSource(const std::string& source,
                                        FixTarget target,
                                        const RepairLimits& limits = {});

/// Renders the result as the `fix:`-prefixed report `cssamec --fix`
/// prints (and the service embeds verbatim): the per-target outcome
/// lines, the status and explorer-verification footer, the line diff,
/// and — whenever a fix was applied — the full patched program.
[[nodiscard]] std::string renderFixReport(const RepairResult& r,
                                          FixTarget target);

/// The one-line counter rendering `--fix --stats` appends.
[[nodiscard]] std::string renderRepairStats(const RepairStats& s);

}  // namespace cssame::repair
