// Diagnostics engine.
//
// Both the front end (syntax/semantic errors) and the synchronization
// analyses (unmatched locks, lock-consistency data races; paper Section 6)
// report through this engine, so callers get one ordered stream of
// warnings/errors per compilation.
#pragma once

#include <string>
#include <vector>

#include "src/support/source_loc.h"
#include "src/support/status.h"

namespace cssame {

enum class DiagSeverity { Note, Warning, Error };

/// Stable identifiers for programmatically checking which diagnostics fired.
enum class DiagCode {
  // Front end.
  SyntaxError,
  UndeclaredIdentifier,
  Redeclaration,
  WrongSymbolKind,
  // Synchronization structure (paper Section 6).
  UnmatchedLock,       // Lock(L) not part of any mutex body
  UnmatchedUnlock,     // Unlock(L) not part of any mutex body
  IllFormedMutexBody,  // candidate body discarded (nested lock of same var)
  InconsistentLocking, // shared var written under different/absent locks
  PotentialDataRace,   // conflicting unsynchronized accesses
  MayAliasRace,        // unsynchronized accesses that may alias through a
                       // pointer or differing array indices
  PotentialDeadlock,   // opposite lock acquisition orders / order cycles
  // csan lock-lifecycle and mutex-body lints (src/sanalysis).
  SelfDeadlock,        // re-acquisition of a lock the thread may hold
  LockLeak,            // a path from Lock(L) exits without Unlock(L)
  EmptyMutexBody,      // well-formed body protecting no statements
  RedundantMutexBody,  // body touches no shared variable
  OverwideMutexBody,   // lock-independent prefix/suffix inside a body
  UnprotectedPiRead,   // π use fed by a concurrent write, disjoint locksets
  // Pipeline hardening (structured failure paths).
  VerifyFailed,        // ir/pfg/ssa verifier violations after a pass
  InvariantViolation,  // CSSAME_CHECK tripped inside an analysis/pass
  BudgetExceeded,      // a resource budget was exhausted
  PassFailure,         // an optimization pass failed and was rolled off
  // Concurrent value-range analysis (src/sanalysis/vrange).
  DeadBranch,          // branch condition provably one-sided
  UnreachableCode,     // statements no interleaving can reach
  DivByZero,           // divisor is (or may be) zero
  AssertProved,        // assert condition provably non-zero
  AssertMayFail,       // assert condition may (or must) be zero
  // TSO weak-memory analysis (src/sanalysis/tso).
  MutualExclusionNotJustifiedUnderTSO,  // ad-hoc protocol breaks if a
                                        // pending store passes a later load
  FenceRedundant,      // fence ordering no store/load pair that can race
};

[[nodiscard]] const char* diagCodeName(DiagCode code);

/// One-sentence description of what a check looks for, shown in the SARIF
/// rule catalog and docs/ANALYSIS.md.
[[nodiscard]] const char* diagCodeDescription(DiagCode code);

/// A related location attached to a diagnostic: "the other" access site of
/// a race witness, the second acquisition of a deadlock pair, etc.
struct DiagNote {
  SourceLoc loc;
  std::string message;
};

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::Warning;
  DiagCode code = DiagCode::SyntaxError;
  SourceLoc loc;
  std::string message;
  /// Witness trail: related sites in evidence order (SARIF
  /// relatedLocations). Empty for simple diagnostics.
  std::vector<DiagNote> notes;

  Diagnostic& note(SourceLoc noteLoc, std::string msg) {
    notes.push_back({noteLoc, std::move(msg)});
    return *this;
  }

  /// Appends the rendering — "<severity> [<code>] <line:col>: <message>",
  /// then one "\n  note <line:col>: <message>" per note — to `out`,
  /// without a trailing newline. Report writers call this to render
  /// straight into their output.
  void appendTo(std::string& out) const;

  /// The rendering of appendTo() as a fresh string.
  [[nodiscard]] std::string str() const;
};

/// Collects diagnostics in emission order.
class DiagEngine {
 public:
  /// Returns the emitted diagnostic so callers can attach witness notes:
  ///   diag.warn(...).note(siteB, "conflicting write here");
  Diagnostic& report(DiagSeverity sev, DiagCode code, SourceLoc loc,
                     std::string message) {
    diags_.push_back({sev, code, loc, std::move(message), {}});
    if (sev == DiagSeverity::Error) ++errors_;
    return diags_.back();
  }

  Diagnostic& error(DiagCode code, SourceLoc loc, std::string msg) {
    return report(DiagSeverity::Error, code, loc, std::move(msg));
  }
  Diagnostic& warn(DiagCode code, SourceLoc loc, std::string msg) {
    return report(DiagSeverity::Warning, code, loc, std::move(msg));
  }

  /// Records a structured pipeline fault as an error diagnostic. The
  /// message names the failing pass/stage so callers (and logs) can
  /// attribute the failure without parsing free text; the fault's source
  /// location (when the failing stage could pin one down) becomes the
  /// diagnostic's location.
  Diagnostic& reportFault(const Fault& fault) {
    DiagCode code = DiagCode::PassFailure;
    switch (fault.kind) {
      case FaultKind::ParseError: code = DiagCode::SyntaxError; break;
      case FaultKind::VerifyError: code = DiagCode::VerifyFailed; break;
      case FaultKind::InvariantViolation:
        code = DiagCode::InvariantViolation;
        break;
      case FaultKind::BudgetExceeded: code = DiagCode::BudgetExceeded; break;
      case FaultKind::PassError:
      case FaultKind::None:
        code = DiagCode::PassFailure;
        break;
    }
    return error(code, fault.loc, fault.str());
  }

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }
  [[nodiscard]] bool hasErrors() const { return errors_ > 0; }
  [[nodiscard]] std::size_t errorCount() const { return errors_; }

  /// Number of diagnostics with the given code.
  [[nodiscard]] std::size_t countOf(DiagCode code) const;

  void clear() {
    diags_.clear();
    errors_ = 0;
  }

 private:
  std::vector<Diagnostic> diags_;
  std::size_t errors_ = 0;
};

}  // namespace cssame
